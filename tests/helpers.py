"""Shared fixture builders: deterministic instances, random instances, files."""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

from ucdispatch.instance import (
    UNIT_COLUMNS,
    GeneralConfig,
    Instance,
    PeriodSeries,
    StartupCostCurve,
    UnitSpec,
)

START = datetime(2009, 5, 11, 0, 0, 0)


def make_unit(unit_id=1, **overrides) -> UnitSpec:
    """A permissive thermal unit; override any field."""
    fields = dict(
        unit_id=unit_id,
        min_uptime=1, min_downtime=1,
        initial_uptime=0, initial_downtime=0,
        p_min=50.0, p_max=200.0,
        ramp_up=1000.0, ramp_down=1000.0,
        startup_ramp=200.0, shutdown_ramp=200.0,
        storage_capacity=0.0, storage_efficiency=0.0, storage_inflow=0.0,
        initial_storage=0.0, final_storage=0.0,
        fuel_type="gas", var_fuel=0.0, fixed_fuel=0.0,
        var_cost=10.0, fixed_cost=100.0, shutdown_cost=0.0,
    )
    fields.update(overrides)
    return UnitSpec(**fields)


def make_instance(units, demand, reserve=None, fuel_cost=None, curves=None,
                  *, length=1.0, upp=1e4, urp=5e3, opp=1e3, tol=0.05,
                  start=START) -> Instance:
    T = len(demand)
    if reserve is None:
        reserve = (0.0,) * T
    fuels = sorted({u.fuel_type for u in units})
    if fuel_cost is None:
        fuel_cost = {f: (1.0,) * T for f in fuels}
    general = GeneralConfig(length, T, start, upp, urp, opp, tol)
    periods = PeriodSeries(tuple(demand), tuple(reserve),
                           {f: tuple(series) for f, series in fuel_cost.items()})
    curves = curves or {}
    curve_map = {u.unit_id: curves.get(u.unit_id, StartupCostCurve(u.unit_id))
                 for u in units}
    return Instance(general, periods, tuple(units), curve_map)


def fixture_instance() -> Instance:
    """One unit, two periods; optimum 2700 with v=(1,1), p=(100,150)."""
    return make_instance(
        [make_unit()],
        demand=(100.0, 150.0),
        curves={1: StartupCostCurve(1, {1: 500.0})},
    )


def storage_instance() -> Instance:
    """A thermal unit plus a pumped-storage unit over four periods."""
    thermal = make_unit(1, p_max=300.0, p_min=30.0, startup_ramp=300.0,
                        shutdown_ramp=300.0)
    pump = make_unit(
        2, p_min=-80.0, p_max=100.0,
        ramp_up=180.0, ramp_down=180.0, startup_ramp=180.0, shutdown_ramp=180.0,
        storage_capacity=400.0, storage_efficiency=0.8, storage_inflow=0.0,
        initial_storage=120.0, final_storage=120.0,
        var_cost=0.5, fixed_cost=1.0,
    )
    return make_instance(
        [thermal, pump],
        demand=(120.0, 260.0, 180.0, 90.0),
        reserve=(10.0, 10.0, 10.0, 10.0),
        curves={1: StartupCostCurve(1, {1: 200.0, 2: 260.0, 3: 300.0})},
    )


def multi_unit_instance():
    """Three units over six periods with initial states, minimal up/down
    times, shutdown costs, two fuels and multi-step startup curves."""
    units = [
        make_unit(1, min_uptime=3, min_downtime=2, initial_uptime=1,
                  p_min=40.0, p_max=250.0, ramp_up=80.0, ramp_down=90.0,
                  startup_ramp=120.0, shutdown_ramp=110.0, fuel_type="coal",
                  var_fuel=2.5, fixed_fuel=3.0, shutdown_cost=45.0),
        make_unit(2, min_uptime=2, min_downtime=3, initial_downtime=2,
                  p_min=20.0, p_max=120.0, ramp_up=60.0, ramp_down=60.0,
                  startup_ramp=70.0, shutdown_ramp=70.0, var_cost=25.5,
                  fixed_cost=12.25, shutdown_cost=10.0),
        make_unit(3, p_min=10.0, p_max=60.0, var_cost=40.0, fixed_cost=5.0),
    ]
    curves = {
        1: StartupCostCurve(1, {1: 100.0, 2: 180.0, 3: 240.0, 4: 275.0}),
        2: StartupCostCurve(2, {1: 30.0, 2: 30.0, 3: 55.5}),
    }
    return make_instance(
        units,
        demand=(150.0, 210.0, 320.0, 280.0, 190.0, 120.0),
        reserve=(15.0, 20.0, 30.0, 30.0, 20.0, 10.0),
        fuel_cost={"coal": (1.0, 1.0, 1.25, 1.25, 1.0, 0.75),
                   "gas": (2.0, 2.5, 3.0, 3.0, 2.5, 2.0)},
        curves=curves, length=1.5)


# ---------------------------------------------------------------------------
# file emission (write-back of an instance, used for loader round-trips)


def write_instance_files(instance: Instance, directory):
    """Write config/units/units_cu/periods files; returns the four paths."""
    directory.mkdir(parents=True, exist_ok=True)
    g = instance.general

    config = directory / "config.txt"
    config.write_text(
        f"START = {g.start_time:%Y-%m-%d %H:%M:%S}\n"
        f"T = {g.num_periods}\n"
        f"L = {g.period_length!r}\n"
        f"UPP = {g.under_prod_penalty!r}\n"
        f"URP = {g.under_reserve_penalty!r}\n"
        f"OPP = {g.over_prod_penalty!r}\n"
        f"STARTUP_TOL = {g.startup_tol!r}\n",
        encoding="utf-8")

    units = directory / "units.csv"
    rows = [",".join(UNIT_COLUMNS)]
    for u in sorted(instance.units, key=lambda u: u.unit_id):
        rows.append(",".join(str(x) for x in (
            u.unit_id, u.min_uptime, u.min_downtime, u.initial_uptime,
            u.initial_downtime, repr(u.p_min), repr(u.p_max), repr(u.ramp_up),
            repr(u.ramp_down), repr(u.startup_ramp), repr(u.shutdown_ramp),
            repr(u.storage_capacity), repr(u.storage_efficiency),
            repr(u.storage_inflow), repr(u.initial_storage),
            repr(u.final_storage), u.fuel_type, repr(u.var_fuel),
            repr(u.fixed_fuel), repr(u.var_cost), repr(u.fixed_cost),
            repr(u.shutdown_cost))))
    units.write_text("\n".join(rows) + "\n", encoding="utf-8")

    startup = directory / "units_cu.csv"
    rows = ["j,k,CU"]
    for unit_id in sorted(instance.startup_curves):
        curve = instance.startup_curves[unit_id]
        for t in sorted(curve.costs):
            rows.append(f"{unit_id},{t},{curve.costs[t]!r}")
    startup.write_text("\n".join(rows) + "\n", encoding="utf-8")

    periods = directory / "periods.csv"
    fuels = sorted(instance.periods.fuel_cost)
    rows = ["t,D,R," + ",".join(f"FC_{f}" for f in fuels)] if fuels else ["t,D,R"]
    for k in range(1, g.num_periods + 1):
        stamp = g.start_time + timedelta(hours=(k - 1) * g.period_length)
        cells = [f"{stamp:%Y-%m-%d %H:%M:%S}",
                 repr(instance.periods.demand[k - 1]),
                 repr(instance.periods.reserve[k - 1])]
        cells += [repr(instance.periods.fuel_cost[f][k - 1]) for f in fuels]
        rows.append(",".join(cells))
    periods.write_text("\n".join(rows) + "\n", encoding="utf-8")

    return config, units, startup, periods


# ---------------------------------------------------------------------------
# random generation


def random_monotone_curve(rng: np.random.Generator, length: int,
                          unit_id: int = 1) -> StartupCostCurve:
    """Monotone nondecreasing startup curve; may contain flat runs and zeros."""
    if length == 0:
        return StartupCostCurve(unit_id, {})
    base = float(rng.uniform(0.0, 50.0)) if rng.random() < 0.8 else 0.0
    increments = rng.choice(
        [0.0, 1.0], size=length, p=[0.3, 0.7]) * rng.uniform(0.0, 30.0, size=length)
    values = base + np.cumsum(increments)
    return StartupCostCurve(unit_id, {t + 1: float(v) for t, v in enumerate(values)})


def surrogate_startup_curve(length: int = 71, scale: float = 1000.0,
                            fixed_share: float = 0.7, tau: float = 20.0,
                            unit_id: int = 1) -> StartupCostCurve:
    """Fixed cost share plus a saturating-exponential variable share."""
    costs = {
        t: scale * (fixed_share + (1.0 - fixed_share) * (1.0 - math.exp(-t / tau)))
        for t in range(1, length + 1)
    }
    return StartupCostCurve(unit_id, costs)


def random_instance(rng: np.random.Generator, n_units: int, T: int, *,
                    with_storage: bool = False,
                    tight_capacity: bool = False) -> Instance:
    """A random valid instance (passes validation with at most warnings)."""
    units = []
    curves = {}
    for j in range(1, n_units + 1):
        storage = with_storage and j == n_units
        p_max = float(rng.uniform(80.0, 300.0))
        if storage:
            p_min = -float(rng.uniform(20.0, 100.0))
            span = p_max - p_min
            ramp = span / 1.0
            capacity = float(rng.uniform(100.0, 400.0))
            initial = float(rng.uniform(0.0, capacity))
            efficiency = float(rng.uniform(0.6, 1.0))
            inflow = float(rng.uniform(0.0, min(p_max, capacity / (4.0 * T)))) \
                if rng.random() < 0.3 else 0.0
            low = max(0.0, initial + T * (inflow - p_max))
            high = min(capacity, initial + T * (efficiency * (-p_min) + inflow))
            final = float(rng.uniform(low, high))
            unit = make_unit(
                j, min_uptime=1, min_downtime=1,
                initial_uptime=0, initial_downtime=0,
                p_min=p_min, p_max=p_max,
                ramp_up=ramp, ramp_down=ramp,
                startup_ramp=span, shutdown_ramp=span,
                storage_capacity=capacity, storage_efficiency=efficiency,
                storage_inflow=inflow, initial_storage=initial,
                final_storage=final,
                var_cost=float(rng.uniform(0.1, 2.0)),
                fixed_cost=float(rng.uniform(0.0, 5.0)),
                var_fuel=0.0, fixed_fuel=0.0,
            )
        else:
            p_min = float(rng.uniform(0.0, 0.4 * p_max))
            initial_uptime = initial_downtime = 0
            if rng.random() < 0.4 and T >= 2:
                if rng.random() < 0.5:
                    initial_uptime = int(rng.integers(1, min(3, T) + 1))
                else:
                    initial_downtime = int(rng.integers(1, min(3, T) + 1))
            unit = make_unit(
                j,
                min_uptime=int(rng.integers(1, min(3, T) + 1)),
                min_downtime=int(rng.integers(1, min(3, T) + 1)),
                initial_uptime=initial_uptime,
                initial_downtime=initial_downtime,
                p_min=p_min, p_max=p_max,
                ramp_up=float(rng.uniform(0.3, 1.5) * p_max),
                ramp_down=float(rng.uniform(0.3, 1.5) * p_max),
                startup_ramp=float(rng.uniform(max(p_min, 0.3 * p_max), p_max)),
                shutdown_ramp=float(rng.uniform(max(p_min, 0.3 * p_max), p_max)),
                var_fuel=float(rng.uniform(0.5, 2.0)),
                fixed_fuel=float(rng.uniform(0.0, 2.0)),
                var_cost=float(rng.uniform(1.0, 10.0)),
                fixed_cost=float(rng.uniform(0.0, 200.0)),
                shutdown_cost=float(rng.uniform(0.0, 150.0)),
            )
        units.append(unit)
        curve_len = int(rng.integers(0, T + 3))
        curves[j] = random_monotone_curve(rng, curve_len, j)

    total = sum(u.p_max for u in units)
    demand, reserve = [], []
    for k in range(T):
        if tight_capacity and rng.random() < 0.5:
            demand.append(float(rng.uniform(1.02, 1.3) * total))
        else:
            demand.append(float(rng.uniform(0.2, 0.85) * total))
        reserve.append(float(rng.uniform(0.0, 0.1) * total))

    fuel_cost = {"gas": tuple(float(rng.uniform(10.0, 40.0)) for _ in range(T))}
    return make_instance(units, demand, reserve, fuel_cost, curves,
                         upp=float(rng.uniform(5e3, 2e4)),
                         urp=float(rng.uniform(1e3, 8e3)),
                         opp=float(rng.uniform(5e2, 3e3)))
