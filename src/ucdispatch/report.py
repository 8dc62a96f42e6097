"""Post-processing: price estimate, corrected maximal production, CSV output.

The electricity price of a period is estimated as the marginal cost of the
most expensive committed unit (perfect-competition assumption).  The model's
p_max variable only carries an upper bound, so the reported maximal possible
production is recomputed from the solved production and commitment values.
The penalty lines of the cost breakdown charge UPP, URP and OPP per MWh: the
summed slack in MW times the period length L times the penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import IoFailure
from .instance import Instance, UnitSpec
from .model import MilpModel
from .solve import Solution
from .writers import write_file

_NUM_FMT = "{:.12g}"


def _solved(instance: Instance, model: MilpModel, solution: Solution,
            kind: str, unit_id: int | None = None) -> list[float]:
    """The solved values of one (kind, unit) for periods 1..T, zeros if the
    model has no such columns (s and c of a thermal unit).  The builder puts
    a (kind, unit)'s columns next to each other, so they are one slice."""
    T = instance.num_periods
    start = model.columns.by_key.get((kind, unit_id, 1))
    return [0.0] * T if start is None else solution.values[start:start + T].tolist()


@dataclass(frozen=True)
class DispatchReport:
    price: list[float | None]              # per period; None = no committed unit
    exact_p_max: dict[int, list[float]]    # unit -> per-period MW
    cost_breakdown: dict[str, float]       # label -> cost, in summary.csv order


def _marginal_cost(instance: Instance, u: UnitSpec, k: int) -> float:
    fc = instance.periods.fuel_cost[u.fuel_type][k - 1]
    return u.var_fuel * fc + u.var_cost


def price_series(instance: Instance, model: MilpModel,
                 solution: Solution) -> list[float | None]:
    """Highest marginal cost among committed units, per period.

    Periods without a committed unit have no defined price and yield None
    (written as an empty CSV cell, not 0).
    """
    v = {u.unit_id: _solved(instance, model, solution, "v", u.unit_id)
         for u in instance.units}
    return [max((_marginal_cost(instance, u, k) for u in instance.units
                 if v[u.unit_id][k - 1] >= 0.5), default=None)
            for k in range(1, instance.num_periods + 1)]


def exact_max_possible(instance: Instance, model: MilpModel,
                       solution: Solution) -> dict[int, list[float]]:
    """Recompute the true maximal possible production from solved values.

    Takes P_max gated by the commitment, capped by what the previous
    production allows (ramping or startup limit) and by an imminent shutdown.
    """
    T = instance.num_periods
    L = instance.general.period_length
    result: dict[int, list[float]] = {}
    for u in instance.units:
        v = _solved(instance, model, solution, "v", u.unit_id)
        p = _solved(instance, model, solution, "p", u.unit_id)
        series = []
        for i in range(T):
            cap = u.p_max * v[i]
            if i > 0:
                cap = min(cap, p[i - 1]
                          + L * u.ramp_up * v[i - 1]
                          + u.startup_ramp * (1.0 - v[i - 1])
                          + u.p_max * (1.0 - v[i]))
            if i < T - 1:
                cap = min(cap, u.p_max * v[i + 1] + u.shutdown_ramp * (v[i] - v[i + 1]))
            series.append(cap)
        result[u.unit_id] = series
    return result


def cost_breakdown(instance: Instance, model: MilpModel,
                   solution: Solution) -> dict[str, float]:
    """Totals from the solved cost variables and slacks, by the labels that
    summary.csv, ``solve --json`` and the text output of ``solve`` all use;
    they sum to the objective."""
    production, startup, shutdown = (
        sum((x for u in instance.units
             for x in _solved(instance, model, solution, kind, u.unit_id)), 0.0)
        for kind in ("cp", "cu", "cd"))
    under_prod, under_res, over_prod = (
        sum(_solved(instance, model, solution, kind))
        for kind in ("p_under", "r_under", "p_over"))
    g = instance.general
    L = g.period_length
    return {
        "production_cost": production,
        "startup_cost": startup,
        "shutdown_cost": shutdown,
        "under_production_penalty": g.under_prod_penalty * L * under_prod,
        "under_reserve_penalty": g.under_reserve_penalty * L * under_res,
        "over_production_penalty": g.over_prod_penalty * L * over_prod,
    }


def build_report(instance: Instance, model: MilpModel,
                 solution: Solution) -> DispatchReport:
    return DispatchReport(
        price=price_series(instance, model, solution),
        exact_p_max=exact_max_possible(instance, model, solution),
        cost_breakdown=cost_breakdown(instance, model, solution),
    )


# ---------------------------------------------------------------------------
# balance checks (also used by the acceptance suite)


def demand_residuals(instance: Instance, model: MilpModel,
                     solution: Solution) -> list[float]:
    """Per period: sum(p - c) + p_under - p_over - D (should be ~0)."""
    p, c = ({u.unit_id: _solved(instance, model, solution, kind, u.unit_id)
             for u in instance.units} for kind in ("p", "c"))
    p_under = _solved(instance, model, solution, "p_under")
    p_over = _solved(instance, model, solution, "p_over")
    residuals = []
    for i in range(instance.num_periods):
        total = sum(p[u.unit_id][i] - c[u.unit_id][i] for u in instance.units)
        total += p_under[i] - p_over[i]
        residuals.append(total - instance.periods.demand[i])
    return residuals


def storage_residuals(instance: Instance, model: MilpModel,
                      solution: Solution) -> dict[int, float]:
    """Per storage unit: SI + sum_k L*(SE*c - p + SIF) - SF (should be ~0)."""
    L = instance.general.period_length
    residuals = {}
    for u in instance.units:
        if not u.is_storage:
            continue
        fill = u.initial_storage
        for c, p in zip(_solved(instance, model, solution, "c", u.unit_id),
                        _solved(instance, model, solution, "p", u.unit_id)):
            fill += L * (u.storage_efficiency * c - p + u.storage_inflow)
        residuals[u.unit_id] = fill - u.final_storage
    return residuals


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value: float) -> str:
    if value == 0.0:
        value = 0.0  # normalize -0
    return _NUM_FMT.format(value)


def write_reports(instance: Instance, model: MilpModel, solution: Solution,
                  report: DispatchReport, out_dir) -> list[Path]:
    """Write the per-variable tables, price, slacks and summary CSV files.

    Per-variable files have one row per period (k plus timestamp) and one
    column per unit; p_max.csv holds the recomputed maximal possible
    production.  Each file is rewritten in place by
    :func:`~ucdispatch.writers.write_file`, so a failure midway leaves the
    files not yet reached as the previous run wrote them.  Returns the
    written paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: {exc}") from exc

    T = instance.num_periods
    unit_ids = [u.unit_id for u in sorted(instance.units, key=lambda u: u.unit_id)]
    # "k,timestamp" of each period, formatted once for all the tables
    stamps = [f"{k},{instance.period_timestamp(k).strftime('%Y-%m-%d %H:%M:%S')}"
              for k in range(1, T + 1)]
    written: list[Path] = []

    def emit(name: str, lines: list[str]) -> None:
        path = out / name
        try:
            write_file(path, "\n".join(lines) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        written.append(path)

    def unit_table(name: str, series: dict[int, list[float]]) -> None:
        header = "k,timestamp," + ",".join(str(j) for j in unit_ids)
        lines = [header]
        for i, stamp in enumerate(stamps):
            lines.append(",".join([stamp, *(_fmt(series[j][i]) for j in unit_ids)]))
        emit(name, lines)

    for kind in ("v", "p", "s", "c", "cp", "cu", "cd"):
        unit_table(f"{kind}.csv",
                   {j: _solved(instance, model, solution, kind, j) for j in unit_ids})
    unit_table("p_max.csv", report.exact_p_max)

    lines = ["k,timestamp,price"]
    for stamp, price in zip(stamps, report.price):
        lines.append(f"{stamp},{'' if price is None else _fmt(price)}")
    emit("price.csv", lines)

    slacks = [_solved(instance, model, solution, kind)
              for kind in ("p_under", "p_over", "r_under")]
    lines = ["k,p_under,p_over,r_under"]
    for k, row in enumerate(zip(*slacks), start=1):
        lines.append(",".join([str(k), *map(_fmt, row)]))
    emit("slacks.csv", lines)

    lines = ["component,value"]
    for label, value in [*report.cost_breakdown.items(), ("objective", solution.objective)]:
        lines.append(f"{label},{_fmt(value)}")
    emit("summary.csv", lines)

    return written
