"""Problem data: parameter types, CSV/config ingestion and input validation.

An :class:`Instance` bundles everything the model builder needs: the general
configuration, per-period series (demand, reserve, fuel costs), the unit
parameter table and the startup-cost curves.  Instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import islice

from .errors import (
    DuplicatePeriod,
    IoFailure,
    MalformedNumber,
    MissingColumn,
    MissingPeriod,
    UnknownFuelReference,
)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

#: units.csv column order: UnitSpec's field order and the fixtures' write-back order
UNIT_COLUMNS = (
    "j", "UT", "DT", "IUT", "IDT", "P_min", "P_max", "RU", "RD", "SU", "SD",
    "SC", "SE", "SIF", "SI", "SF", "F", "FA", "FB", "PA", "PB", "CD",
)
#: the units.csv columns read as integers; F is text and the rest are floats
_INT_UNIT_COLUMNS = frozenset(("j", "UT", "DT", "IUT", "IDT"))

STARTUP_COLUMNS = ("j", "k", "CU")

CONFIG_KEYS = ("START", "T", "L", "UPP", "URP", "OPP", "STARTUP_TOL")

_FUEL_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class GeneralConfig:
    """Horizon layout, penalty factors and the thinning tolerance."""

    period_length: float        # hours per period
    num_periods: int
    start_time: datetime        # naive local time, no zone conversion
    # UPP, URP, OPP in cost/MWh: a slack of x MW in one period costs
    # penalty * L * x, in the same units as the production cost
    under_prod_penalty: float
    under_reserve_penalty: float
    over_prod_penalty: float
    startup_tol: float          # in [0, 1]


@dataclass(frozen=True)
class PeriodSeries:
    """Per-period demand, reserve and fuel costs, index 0 = period 1."""

    demand: tuple[float, ...]
    reserve: tuple[float, ...]
    fuel_cost: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class UnitSpec:
    """Technical and cost parameters of one power unit.

    A negative ``p_min`` marks a storage unit; ``-p_min`` is then its maximal
    consumption.
    """

    unit_id: int
    min_uptime: int             # periods a unit stays on after startup
    min_downtime: int           # periods a unit stays off after shutdown
    initial_uptime: int         # forced-on periods at the horizon start
    initial_downtime: int       # forced-off periods at the horizon start
    p_min: float                # MW, minimal production while on
    p_max: float                # MW, maximal production while on
    ramp_up: float              # MW/h while on
    ramp_down: float            # MW/h while on
    startup_ramp: float         # MW reachable in the startup period
    shutdown_ramp: float        # MW allowed in the period before shutdown
    storage_capacity: float     # MWh
    storage_efficiency: float   # MWh stored per MWh consumed
    storage_inflow: float       # MW, e.g. natural inflow of a reservoir
    initial_storage: float      # MWh at period 1
    final_storage: float        # MWh right after the last period
    fuel_type: str
    var_fuel: float             # MWh fuel per MWh produced
    fixed_fuel: float           # MWh fuel per hour online
    var_cost: float             # cost per MWh produced
    fixed_cost: float           # cost per hour online
    shutdown_cost: float        # cost per shutdown event

    @property
    def is_storage(self) -> bool:
        return self.p_min < 0


@dataclass(frozen=True)
class StartupCostCurve:
    """Startup cost as a sparse map from offline duration (periods) to cost."""

    unit_id: int
    costs: dict[int, float] = field(default_factory=dict)

    def prefix_values(self) -> list[float]:
        """Values at t = 1, 2, ... up to the first undefined index."""
        values = []
        t = 1
        while t in self.costs:
            values.append(self.costs[t])
            t += 1
        return values


@dataclass(frozen=True)
class Instance:
    """A complete, immutable problem instance."""

    general: GeneralConfig
    periods: PeriodSeries
    units: tuple[UnitSpec, ...]
    startup_curves: dict[int, StartupCostCurve]

    @property
    def num_periods(self) -> int:
        return self.general.num_periods

    def unit(self, unit_id: int) -> UnitSpec:
        for u in self.units:
            if u.unit_id == unit_id:
                return u
        raise KeyError(unit_id)

    def curve(self, unit_id: int) -> StartupCostCurve:
        return self.startup_curves.get(unit_id, StartupCostCurve(unit_id))

    def period_timestamp(self, k: int) -> datetime:
        """Start time of period k (1-based)."""
        hours = (k - 1) * self.general.period_length
        return self.general.start_time + timedelta(hours=hours)

    def with_scaled_costs(self, alpha: float) -> "Instance":
        """Copy with every cost input multiplied by ``alpha`` (test hook)."""
        general = replace(
            self.general,
            under_prod_penalty=alpha * self.general.under_prod_penalty,
            under_reserve_penalty=alpha * self.general.under_reserve_penalty,
            over_prod_penalty=alpha * self.general.over_prod_penalty,
        )
        periods = replace(
            self.periods,
            fuel_cost={
                f: tuple(alpha * x for x in series)
                for f, series in self.periods.fuel_cost.items()
            },
        )
        units = tuple(
            replace(u, var_cost=alpha * u.var_cost, fixed_cost=alpha * u.fixed_cost,
                    shutdown_cost=alpha * u.shutdown_cost)
            for u in self.units
        )
        curves = {
            j: StartupCostCurve(j, {t: alpha * c for t, c in curve.costs.items()})
            for j, curve in self.startup_curves.items()
        }
        return Instance(general, periods, units, curves)


# ---------------------------------------------------------------------------
# period indexing


def period_index(timestamp: datetime, start: datetime, period_length: float) -> int:
    """1-based period index of ``timestamp`` relative to ``start``.

    Uses floor((elapsed_days * 24 + 0.1) / L) + 1; the extra 0.1 hours guard
    against sub-period timestamp jitter.  The caller filters indices outside
    [1, T].
    """
    days = (timestamp - start).total_seconds() / 86400.0
    position = (days * 24.0 + 0.1) / period_length
    # a subnormal L overflows the quotient to +-inf; clamped to the largest
    # float, the index still lies outside any horizon a config can give
    big = sys.float_info.max
    return math.floor(min(max(position, -big), big)) + 1


# ---------------------------------------------------------------------------
# loading


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise MalformedNumber(f"{where}: cannot parse {raw!r} as a number") from None
    if math.isnan(value):
        raise MalformedNumber(f"{where}: NaN is not a valid value")
    if math.isinf(value):
        raise MalformedNumber(f"{where}: {raw!r} is not a finite number")
    return value


def _parse_int(raw: str, where: str) -> int:
    value = _parse_float(raw, where)
    if value != int(value):
        raise MalformedNumber(f"{where}: expected an integer, got {raw!r}")
    return int(value)


def _read_config(path, overrides=None) -> GeneralConfig:
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> the line that sets it
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise MalformedNumber(f"{path}: expected KEY = VALUE, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in lines:
                    raise DuplicatePeriod(f"{path}:{line_no}: {key} is already set "
                                          f"on line {lines[key]}")
                lines[key] = line_no
                entries[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}") from exc

    if overrides:
        entries.update(overrides)
    for key in CONFIG_KEYS:
        if key not in entries:
            raise MissingColumn(f"{path}: missing config key {key}")

    try:
        start = datetime.strptime(entries["START"], TIMESTAMP_FORMAT)
    except ValueError:
        raise MalformedNumber(
            f"{path}: START must be 'YYYY-MM-DD HH:MM:SS', got {entries['START']!r}"
        ) from None

    num_periods = _parse_int(entries["T"], f"{path}: T")
    length = _parse_float(entries["L"], f"{path}: L")
    upp = _parse_float(entries["UPP"], f"{path}: UPP")
    urp = _parse_float(entries["URP"], f"{path}: URP")
    opp = _parse_float(entries["OPP"], f"{path}: OPP")
    tol = _parse_float(entries["STARTUP_TOL"], f"{path}: STARTUP_TOL")

    # domain checks here so downstream code can rely on a sane horizon
    if length <= 0:
        raise MalformedNumber(f"{path}: L must be positive")
    if num_periods < 1:
        raise MalformedNumber(f"{path}: T must be at least 1")
    if min(upp, urp, opp) < 0:
        raise MalformedNumber(f"{path}: penalties must be nonnegative")
    if not 0.0 <= tol <= 1.0:
        raise MalformedNumber(f"{path}: STARTUP_TOL must lie in [0, 1]")

    return GeneralConfig(length, num_periods, start, upp, urp, opp, tol)


def _open_csv(path):
    # decoded up front, so a byte that is not UTF-8 is a read failure here
    # rather than an error from inside the csv reader
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return io.StringIO(handle.read(), newline="")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _check_columns(path, header, required) -> None:
    present = set(header or ())
    for column in required:
        if column not in present:
            raise MissingColumn(f"{path}: missing column {column}")


def _read_units(path) -> tuple[UnitSpec, ...]:
    units = []
    with _open_csv(path) as handle:
        reader = csv.DictReader(handle)
        _check_columns(path, reader.fieldnames, UNIT_COLUMNS)
        for row_no, row in enumerate(reader, start=2):
            where = f"{path}:{row_no}"
            units.append(UnitSpec(*(
                (row[column] or "").strip() if column == "F"
                else (_parse_int if column in _INT_UNIT_COLUMNS else _parse_float)(
                    row[column], f"{where} {column}")
                for column in UNIT_COLUMNS)))
    return tuple(units)


def _read_startup_curves(path, unit_ids) -> dict[int, StartupCostCurve]:
    costs: dict[int, dict[int, float]] = {j: {} for j in unit_ids}
    lines: dict[tuple[int, int], int] = {}  # (j, k) -> the line of its row
    with _open_csv(path) as handle:
        reader = csv.DictReader(handle)
        _check_columns(path, reader.fieldnames, STARTUP_COLUMNS)
        for row_no, row in enumerate(reader, start=2):
            where = f"{path}:{row_no}"
            j = _parse_int(row["j"], f"{where} j")
            if j not in costs:
                continue  # rows for unlisted units carry no meaning
            t = _parse_int(row["k"], f"{where} k")
            if (j, t) in lines:
                raise DuplicatePeriod(f"{where}: unit {j} already has a row for k = {t}, "
                                      f"on line {lines[j, t]}")
            lines[j, t] = row_no
            costs[j][t] = _parse_float(row["CU"], f"{where} CU")
    return {j: StartupCostCurve(j, c) for j, c in costs.items()}


def _read_periods(path, config: GeneralConfig, fuels) -> PeriodSeries:
    T = config.num_periods
    fuel_columns = {f: f"FC_{f}" for f in fuels}
    # period -> (demand, reserve, *fuel costs); nothing sized by T is made
    # before the rows are known to cover the horizon
    rows: dict[int, tuple] = {}

    with _open_csv(path) as handle:
        reader = csv.DictReader(handle)
        _check_columns(path, reader.fieldnames, ("t", "D", "R"))
        present = set(reader.fieldnames)
        for f, column in fuel_columns.items():
            if column not in present:
                raise UnknownFuelReference(
                    f"{path}: no column {column} for fuel {f!r}"
                )
        for row_no, row in enumerate(reader, start=2):
            where = f"{path}:{row_no}"
            try:
                stamp = datetime.strptime(row["t"].strip(), TIMESTAMP_FORMAT)
            except (AttributeError, ValueError):
                raise MalformedNumber(
                    f"{where} t: expected 'YYYY-MM-DD HH:MM:SS', got {row['t']!r}"
                ) from None
            k = period_index(stamp, config.start_time, config.period_length)
            if not 1 <= k <= T:
                continue  # outside the horizon; dropped by design
            if k in rows:
                raise DuplicatePeriod(f"{where}: period {k} already has a row")
            rows[k] = tuple(_parse_float(row[column], f"{where} {column}")
                            for column in ("D", "R", *fuel_columns.values()))

    if len(rows) < T:
        missing = T - len(rows)
        first = list(islice((k for k in range(1, T + 1) if k not in rows), 10))
        more = f" and {missing - len(first)} more" if missing > len(first) else ""
        raise MissingPeriod(f"{path}: no rows for period(s) {first}{more}")

    demand, reserve, *fuel_cost = zip(*(rows[k] for k in range(1, T + 1)))
    return PeriodSeries(demand, reserve, dict(zip(fuel_columns, fuel_cost)))


def load_instance(config_path, units_path, startup_path, periods_path,
                  overrides: dict[str, str] | None = None) -> Instance:
    """Load an instance from a config file and the three CSV tables.

    Period rows are keyed by timestamp and mapped through
    :func:`period_index`; rows outside [1, T] are discarded.  The fuel set is
    the union of the units' fuel types, and each fuel must have a matching
    FC_<fuel> column.  ``overrides`` replaces config entries before parsing
    (CLI --set).
    """
    config = _read_config(config_path, overrides)
    units = _read_units(units_path)
    curves = _read_startup_curves(startup_path, [u.unit_id for u in units])
    fuels = sorted({u.fuel_type for u in units})
    periods = _read_periods(periods_path, config, fuels)
    return Instance(config, periods, units, curves)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: str = "error"     # "error" | "warning"
    unit: int | None = None
    period: int | None = None

    def __str__(self) -> str:
        scope = ""
        if self.unit is not None:
            scope += f" unit {self.unit}"
        if self.period is not None:
            scope += f" period {self.period}"
        return f"[{self.severity}] {self.code}{scope}: {self.message}"


class ValidationReport(list):
    """The list of violations found by :func:`validate`."""

    def errors(self) -> list[Violation]:
        return [r for r in self if r.severity == "error"]

    def warnings(self) -> list[Violation]:
        return [r for r in self if r.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def codes(self) -> set[str]:
        return {r.code for r in self}


#: codes of the full input-data error catalog (capacity shortfall is a warning)
CATALOG_CODES = (
    "initial-uptime-range",
    "initial-downtime-range",
    "simultaneous-initial-state",
    "min-uptime-range",
    "min-downtime-range",
    "impossible-production-limits",
    "negative-ramp-rate",
    "startup-ramp-below-minimum",
    "shutdown-ramp-below-minimum",
    "decreasing-startup-costs",
    "storage-inflow-overcapacity",
    "invalid-storage-efficiency",
    "invalid-initial-storage-fill",
    "invalid-final-storage-fill",
    "final-storage-unreachable",
    "final-storage-overfull",
    "capacity-shortfall",
)


def validate(instance: Instance) -> ValidationReport:
    """Check the instance against the input-data error catalog.

    Returns one record per violated rule; problems are reported, never
    raised.  A capacity shortfall (sum of P_max below demand plus reserve) is
    a warning only, because the slack variables keep the model feasible.
    """
    records: list[Violation] = []
    g = instance.general
    T, L = g.num_periods, g.period_length

    def err(code, message, unit=None, period=None):
        records.append(Violation(code, message, "error", unit, period))

    seen: set[int] = set()
    for u in instance.units:
        j = u.unit_id
        if j < 0:
            err("negative-unit-id", "Unit ids must be nonnegative!", j)
        if j in seen:
            err("duplicate-unit-id", "Unit id listed more than once!", j)
        seen.add(j)
        if not 0 <= u.initial_uptime <= T:
            err("initial-uptime-range", "Initial uptime out of range!", j)
        if not 0 <= u.initial_downtime <= T:
            err("initial-downtime-range", "Initial downtime out of range!", j)
        if u.initial_uptime > 0 and u.initial_downtime > 0:
            err("simultaneous-initial-state",
                "Simultaneous initial down- and uptime!", j)
        if not 1 <= u.min_uptime <= T:
            err("min-uptime-range", "Minimal uptime out of range!", j)
        if not 1 <= u.min_downtime <= T:
            err("min-downtime-range", "Minimal downtime out of range!", j)
        if u.p_min > u.p_max:
            err("impossible-production-limits", "Impossible production limits!", j)
        if min(u.ramp_up, u.ramp_down, u.startup_ramp, u.shutdown_ramp) < 0:
            err("negative-ramp-rate", "Ramp rates must be nonnegative!", j)
        if u.p_min > u.startup_ramp:
            err("startup-ramp-below-minimum", "Some unit is not able to start up!", j)
        if u.p_min > u.shutdown_ramp:
            err("shutdown-ramp-below-minimum", "Some unit is not able to shutdown!", j)

        curve = instance.curve(j)
        last = 0.0
        for t in sorted(curve.costs):
            if curve.costs[t] < last:
                err("decreasing-startup-costs",
                    "The start-up costs are not monotonically increasing!", j)
                break
            last = curve.costs[t]

        if u.storage_inflow > u.p_max:
            err("storage-inflow-overcapacity",
                "Storage inflow leads to overcapacity!", j)
        if not 0.0 <= u.storage_efficiency <= 1.0:
            err("invalid-storage-efficiency", "Invalid storage efficiency!", j)
        if u.initial_storage > u.storage_capacity:
            err("invalid-initial-storage-fill", "Invalid initial storage fill!", j)
        if u.final_storage > u.storage_capacity:
            err("invalid-final-storage-fill", "Invalid final storage fill!", j)
        max_fill = u.initial_storage + L * T * (
            u.storage_efficiency * max(0.0, -u.p_min) + u.storage_inflow)
        if max_fill < u.final_storage:
            err("final-storage-unreachable",
                "Some storage constraints are not fulfillable!", j)
        max_drain = u.initial_storage + L * T * (-u.p_max + u.storage_inflow)
        if max_drain > u.final_storage:
            err("final-storage-overfull",
                "Some storage constraints are not fulfillable!", j)

        if u.fuel_type not in instance.periods.fuel_cost:
            err("unknown-fuel", f"No fuel cost series for fuel {u.fuel_type!r}", j)
        if not _FUEL_NAME_RE.match(u.fuel_type or ""):
            err("invalid-fuel-name",
                f"Fuel name {u.fuel_type!r} must be alphanumeric/underscore", j)

    # period series sanity (required nonnegativity of D, R and fuel costs)
    for k in range(1, T + 1):
        if instance.periods.demand[k - 1] < 0:
            err("negative-demand", "Demand must be nonnegative", period=k)
        if instance.periods.reserve[k - 1] < 0:
            err("negative-reserve", "Reserve must be nonnegative", period=k)
    for f, series in sorted(instance.periods.fuel_cost.items()):
        for k, value in enumerate(series, start=1):
            if value < 0:
                err("negative-fuel-cost",
                    f"Fuel cost of {f!r} must be nonnegative", period=k)

    # capacity sufficiency is soft: slacks absorb the shortfall
    total_p_max = sum(u.p_max for u in instance.units)
    for k in range(1, T + 1):
        need = instance.periods.demand[k - 1] + instance.periods.reserve[k - 1]
        if total_p_max < need:
            records.append(Violation(
                "capacity-shortfall",
                f"Total capacity {total_p_max:g} MW below demand plus reserve "
                f"{need:g} MW",
                "warning", None, k))

    return ValidationReport(records)
