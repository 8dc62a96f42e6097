"""Translate an instance plus thinned startup curves into a MILP.

Variables
    v       on/off state (binary)
    p       production [MW]
    p_max   maximal possible production [MW] (spinning-reserve measure)
    s, c    storage fill [MWh] and consumption [MW], storage units only
    cp      production cost per period
    cu, cd  startup / shutdown cost per period
    p_under, p_over, r_under   demand and reserve slacks per period

Constraint families (names used in constraint tags and stats):
    initial-on, initial-off     fixed states during the initial up/downtime
    min-up, min-down            minimal up- and downtime
    bounds                      P_min*v <= p <= p_max <= P_max*v (three rows)
    ramp-up, ramp-down          inter-period ramping with relaxation tightening
    shutdown-limit              production cap when a shutdown is imminent
    storage-cap, consumption-cap, storage-balance,
    storage-initial, storage-final
    demand, reserve             softened system balance with slack variables
    prod-cost                   cost-defining equalities
    shutdown-cost, startup-cost epigraph rows for cd and cu

A model stores its constraints once, as ``MilpModel.rows``: compressed
sparse rows in NumPy arrays with each row's name, sense, right-hand side and
family code, filled one row at a time by :meth:`RowMatrix.from_rows` from
the builder's row generator.  It stores its columns once, as
``MilpModel.columns``: each column's (kind, unit, period) key and name, the
name -> column and key -> column maps and the binary columns.  Every
consumer (exact engine, LP relaxation, residual check, MPS/LP writers,
solution parser, reports) reads only ``rows`` and ``columns``, so a built
model is read-only.  ``MilpModel.constraints`` is a view that makes
:class:`LinearConstraint` objects from ``rows`` on each access.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationFailed
from .instance import Instance, validate
from .thinning import ThinnedCurve, thin_all

KIND_ORDER = ("v", "p", "p_max", "s", "c", "cp", "cu", "cd",
              "p_under", "p_over", "r_under")

#: short column-name tokens, e.g. v_3_17 or pu_5
KIND_TOKEN = {
    "v": "v", "p": "p", "p_max": "pm", "s": "s", "c": "c",
    "cp": "cp", "cu": "cu", "cd": "cd",
    "p_under": "pu", "p_over": "po", "r_under": "ru",
}

PERIOD_KINDS = ("p_under", "p_over", "r_under")

CONSTRAINT_FAMILIES = (
    "initial-on", "initial-off", "min-up", "min-down", "bounds",
    "ramp-up", "ramp-down", "shutdown-limit",
    "storage-cap", "consumption-cap", "storage-balance",
    "storage-initial", "storage-final",
    "demand", "reserve", "prod-cost", "shutdown-cost", "startup-cost",
)


@dataclass
class LinearConstraint:
    name: str                     # family[j,k(,i|t)]
    coefficients: dict[int, float]
    sense: str                    # "<=", "=", ">="
    rhs: float

    @property
    def family(self) -> str:
        return self.name.split("[", 1)[0]


#: row senses in the order of their :attr:`RowMatrix.sense` codes
SENSES = ("<=", "=", ">=")
SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}


@dataclass(frozen=True, eq=False)
class RowMatrix:
    """Row i is named ``names[i]`` and has the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with the coefficients
    ``data`` at the same positions.  ``sense`` holds codes into SENSES and
    ``family`` codes into ``families``."""

    indptr: np.ndarray       # int64, one more than there are rows
    indices: np.ndarray      # int32
    data: np.ndarray         # float64
    sense: np.ndarray        # int8
    rhs: np.ndarray          # float64
    family: np.ndarray       # int64
    families: tuple[str, ...]
    names: tuple[str, ...]

    @classmethod
    def from_rows(cls, rows) -> RowMatrix:
        """The matrix of ``(name, {column: value}, sense, rhs)`` rows, read one
        at a time, zero values dropped; a row's family is its name up to "["."""
        indptr, indices, data = array("q", [0]), array("i"), array("d")
        sense, rhs, family = array("b"), array("d"), array("q")
        families: dict[str, int] = {}
        names = []
        for name, coefficients, row_sense, row_rhs in rows:
            columns = sorted(c for c, v in coefficients.items() if v != 0.0)
            indices.extend(columns)
            data.extend(map(coefficients.__getitem__, columns))
            indptr.append(len(indices))
            sense.append(SENSE_CODE[row_sense])
            rhs.append(row_rhs)
            family.append(families.setdefault(name.partition("[")[0], len(families)))
            names.append(name)
        return cls(np.frombuffer(indptr, np.int64), np.frombuffer(indices, np.int32),
                   np.frombuffer(data, np.float64), np.frombuffer(sense, np.int8),
                   np.frombuffer(rhs, np.float64), np.frombuffer(family, np.int64),
                   tuple(families), tuple(names))

    def row_ids(self) -> np.ndarray:
        """The row of every nonzero."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))

    def row(self, i: int):
        """(column, coefficient) pairs of row ``i``, columns ascending."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return zip(self.indices[start:stop].tolist(), self.data[start:stop].tolist())

    def dense(self, num_columns: int) -> np.ndarray:
        """The rows as a dense matrix, for desk-scale models."""
        matrix = np.zeros((len(self.rhs), num_columns))
        matrix[self.row_ids(), self.indices] = self.data
        return matrix

    def activities(self, x: np.ndarray) -> np.ndarray:
        """The left-hand side of every row at the point ``x``."""
        return np.bincount(self.row_ids(), weights=self.data * x[self.indices],
                           minlength=len(self.rhs))


class ColumnIndex(NamedTuple):
    """Column i has the key ``keys[i]``, (kind, unit_id, period), and the
    name ``names[i]``; the ``v`` columns are the binaries."""

    keys: list[tuple]
    names: list[str]
    by_name: dict[str, int]
    by_key: dict[tuple, int]
    binaries: list[int]

    @classmethod
    def from_keys(cls, keys: list[tuple]) -> ColumnIndex:
        names = [f"{KIND_TOKEN[kind]}_{period}" if unit_id is None
                 else f"{KIND_TOKEN[kind]}_{unit_id}_{period}"
                 for kind, unit_id, period in keys]
        return cls(keys, names, {name: i for i, name in enumerate(names)},
                   {key: i for i, key in enumerate(keys)},
                   [i for i, (kind, _, _) in enumerate(keys) if kind == "v"])


@dataclass
class MilpModel:
    columns: ColumnIndex
    rows: RowMatrix
    objective: dict[int, float]   # minimization

    @property
    def constraints(self) -> list[LinearConstraint]:
        """The rows as new :class:`LinearConstraint` objects, columns
        ascending; built on each access and not kept."""
        rows = self.rows
        return [LinearConstraint(name, dict(rows.row(i)), SENSES[code], rhs)
                for i, (name, code, rhs) in enumerate(
                    zip(rows.names, rows.sense.tolist(), rows.rhs.tolist()))]

    @property
    def num_columns(self) -> int:
        return len(self.columns.keys)

    def binary_columns(self) -> list[int]:
        return self.columns.binaries

    def column_of(self, name: str) -> int:
        return self.columns.by_name[name]

    def objective_value(self, values) -> float:
        return sum(coef * float(values[col]) for col, coef in self.objective.items())


def build_model(instance: Instance,
                thinned: dict[int, ThinnedCurve] | None = None,
                *, ramp_tightening: bool = True) -> MilpModel:
    """Build the MILP for a validated instance.

    ``thinned`` maps unit ids to thinned startup curves (defaults to thinning
    at the configured tolerance).  ``ramp_tightening=False`` drops the
    relaxation-tightening terms of the ramp constraints; this must not change
    the optimum, only the LP relaxation.

    Raises :class:`ValidationFailed` if the instance has validation errors
    and :class:`DomainError` if a coefficient or right-hand side overflows.
    """
    report = validate(instance)
    if not report.ok:
        raise ValidationFailed(report)
    if thinned is None:
        thinned = thin_all(instance)

    g = instance.general
    T, L = g.num_periods, g.period_length
    units = sorted(instance.units, key=lambda u: u.unit_id)
    storage = [u for u in units if u.is_storage]

    # --- variables, kind-major then unit then period ------------------------
    keys = []
    for kind in KIND_ORDER:
        if kind in PERIOD_KINDS:
            keys += [(kind, None, k) for k in range(1, T + 1)]
        else:
            owners = storage if kind in ("s", "c") else units
            keys += [(kind, u.unit_id, k) for u in owners for k in range(1, T + 1)]
    columns = ColumnIndex.from_keys(keys)
    objective: dict[int, float] = {}

    def col(kind, j, k):
        return columns.by_key[(kind, j, k)]

    # --- objective -----------------------------------------------------------
    for u in units:
        for k in range(1, T + 1):
            objective[col("cp", u.unit_id, k)] = 1.0
            objective[col("cu", u.unit_id, k)] = 1.0
            objective[col("cd", u.unit_id, k)] = 1.0
    for k in range(1, T + 1):
        if g.under_prod_penalty != 0.0:
            objective[col("p_under", None, k)] = g.under_prod_penalty
        if g.under_reserve_penalty != 0.0:
            objective[col("r_under", None, k)] = g.under_reserve_penalty
        if g.over_prod_penalty != 0.0:
            objective[col("p_over", None, k)] = g.over_prod_penalty

    def rows():
        # --- initial state fixing --------------------------------------------
        for u in units:
            j = u.unit_id
            for k in range(1, min(u.initial_uptime, T) + 1):
                yield (f"initial-on[{j},{k}]", {col("v", j, k): 1.0}, "=", 1.0)
        for u in units:
            j = u.unit_id
            for k in range(1, min(u.initial_downtime, T) + 1):
                yield (f"initial-off[{j},{k}]", {col("v", j, k): 1.0}, "=", 0.0)

        # --- minimal up/downtime ---------------------------------------------
        # A startup in period k (v(k) - v(k-1) = 1) forces v(k+i) = 1 for the
        # next UT-1 periods; shutdowns are handled symmetrically.
        for u in units:
            j = u.unit_id
            for k in range(u.initial_uptime + 2, T + 1):
                for i in range(1, min(u.min_uptime - 1, T - k) + 1):
                    yield (
                        f"min-up[{j},{k},{i}]",
                        {col("v", j, k + i): 1.0, col("v", j, k): -1.0,
                         col("v", j, k - 1): 1.0},
                        ">=", 0.0)
        for u in units:
            j = u.unit_id
            for k in range(u.initial_downtime + 2, T + 1):
                for i in range(1, min(u.min_downtime - 1, T - k) + 1):
                    yield (
                        f"min-down[{j},{k},{i}]",
                        {col("v", j, k + i): 1.0, col("v", j, k - 1): 1.0,
                         col("v", j, k): -1.0},
                        "<=", 1.0)

        # --- production bounds, split into three rows ------------------------
        for u in units:
            j = u.unit_id
            for k in range(1, T + 1):
                yield (f"bounds[{j},{k},1]",
                       {col("v", j, k): u.p_min, col("p", j, k): -1.0}, "<=", 0.0)
                yield (f"bounds[{j},{k},2]",
                       {col("p", j, k): 1.0, col("p_max", j, k): -1.0}, "<=", 0.0)
                yield (f"bounds[{j},{k},3]",
                       {col("p_max", j, k): 1.0, col("v", j, k): -u.p_max}, "<=", 0.0)

        # --- ramping ---------------------------------------------------------
        # The tightening constants use max(P_min, 0): the best variable-free lower
        # bound on the previous production, valid also for storage units.
        for u in units:
            j = u.unit_id
            base = max(u.p_min, 0.0)
            rtu = min(u.startup_ramp, base + L * u.ramp_up) if ramp_tightening else 0.0
            for k in range(2, T + 1):
                yield (
                    f"ramp-up[{j},{k}]",
                    {col("p_max", j, k): 1.0,
                     col("p", j, k - 1): -1.0,
                     col("v", j, k - 1): u.startup_ramp - L * u.ramp_up,
                     col("v", j, k): -rtu},
                    "<=", u.startup_ramp - rtu)
            rtd = min(u.shutdown_ramp, base + L * u.ramp_down) if ramp_tightening else 0.0
            for k in range(2, T + 1):
                yield (
                    f"ramp-down[{j},{k}]",
                    {col("p", j, k): 1.0,
                     col("p", j, k - 1): -1.0,
                     col("v", j, k): L * u.ramp_down - u.shutdown_ramp,
                     col("v", j, k - 1): rtd},
                    ">=", rtd - u.shutdown_ramp)
            for k in range(1, T):
                yield (
                    f"shutdown-limit[{j},{k}]",
                    {col("p_max", j, k): 1.0,
                     col("v", j, k): -u.shutdown_ramp,
                     col("v", j, k + 1): u.shutdown_ramp - u.p_max},
                    "<=", 0.0)

        # --- storage ---------------------------------------------------------
        for u in storage:
            j = u.unit_id
            for k in range(1, T + 1):
                yield (f"storage-cap[{j},{k}]",
                       {col("s", j, k): 1.0}, "<=", u.storage_capacity)
            for k in range(1, T + 1):
                yield (f"consumption-cap[{j},{k}]",
                       {col("c", j, k): 1.0}, "<=", max(0.0, -u.p_min))
            for k in range(2, T + 1):
                yield (
                    f"storage-balance[{j},{k}]",
                    {col("s", j, k): 1.0,
                     col("s", j, k - 1): -1.0,
                     col("c", j, k - 1): -L * u.storage_efficiency,
                     col("p", j, k - 1): L},
                    "=", L * u.storage_inflow)
            yield (f"storage-initial[{j}]", {col("s", j, 1): 1.0},
                   "=", u.initial_storage)
            yield (
                f"storage-final[{j}]",
                {col("s", j, T): 1.0,
                 col("c", j, T): L * u.storage_efficiency,
                 col("p", j, T): -L},
                "=", u.final_storage - L * u.storage_inflow)

        # --- demand and reserve with slacks ----------------------------------
        for k in range(1, T + 1):
            coeffs = {col("p", u.unit_id, k): 1.0 for u in units}
            for u in storage:
                coeffs[col("c", u.unit_id, k)] = -1.0
            coeffs[col("p_under", None, k)] = 1.0
            coeffs[col("p_over", None, k)] = -1.0
            yield (f"demand[{k}]", coeffs, "=", instance.periods.demand[k - 1])
        for k in range(1, T + 1):
            coeffs = {}
            for u in units:
                coeffs[col("p_max", u.unit_id, k)] = 1.0
                coeffs[col("p", u.unit_id, k)] = -1.0
            for u in storage:
                coeffs[col("c", u.unit_id, k)] = 1.0
            coeffs[col("r_under", None, k)] = 1.0
            yield (f"reserve[{k}]", coeffs, ">=", instance.periods.reserve[k - 1])

        # --- production cost equalities --------------------------------------
        for u in units:
            j = u.unit_id
            fc = instance.periods.fuel_cost[u.fuel_type]
            for k in range(1, T + 1):
                var_rate = (u.var_fuel * fc[k - 1] + u.var_cost) * L
                fixed_rate = (u.fixed_fuel * fc[k - 1] + u.fixed_cost) * L
                yield (
                    f"prod-cost[{j},{k}]",
                    {col("cp", j, k): 1.0,
                     col("p", j, k): -var_rate,
                     col("v", j, k): -fixed_rate},
                    "=", 0.0)

        # --- shutdown cost epigraph ------------------------------------------
        for u in units:
            j = u.unit_id
            for k in range(2, T + 1):
                yield (
                    f"shutdown-cost[{j},{k}]",
                    {col("cd", j, k): 1.0,
                     col("v", j, k - 1): -u.shutdown_cost,
                     col("v", j, k): u.shutdown_cost},
                    ">=", 0.0)

        # --- startup cost epigraph over thinned group starts -----------------
        # cu(j,k) >= step(t) * (v(j,k) - sum_{n=1..t} v(j,k-n)) for group starts
        # t < k.  The right-hand term is 1 exactly when the unit starts in k after
        # at least t offline periods.  A unit's v columns are consecutive, so the
        # window v(k-t..k-1) is one column range.
        for u in units:
            j = u.unit_id
            curve = thinned.get(j)
            starts = curve.group_starts() if curve is not None else []
            for k in range(1, T + 1):
                for t in starts:
                    if t > k - 1:
                        break
                    step = curve.steps[t]
                    coeffs = {col("cu", j, k): 1.0, col("v", j, k): -step}
                    window = range(col("v", j, k - t), col("v", j, k))
                    coeffs.update(dict.fromkeys(window, step))
                    yield (f"startup-cost[{j},{k},{t}]", coeffs, ">=", 0.0)

    matrix = RowMatrix.from_rows(rows())
    finite = np.isfinite(matrix.data)
    if not (finite.all() and np.isfinite(matrix.rhs).all()):
        bad = min([*np.flatnonzero(~np.isfinite(matrix.rhs)).tolist(),
                   *matrix.row_ids()[~finite].tolist()])
        raise DomainError(f"row {matrix.names[bad]} has a coefficient or right-hand "
                          "side that is not finite: the inputs overflow in it")
    return MilpModel(columns, matrix, objective)


def model_stats(model: MilpModel) -> dict:
    """Constraint counts per family and variable counts per kind."""
    rows, columns = model.rows, model.columns
    counts = np.bincount(rows.family, minlength=len(rows.families)).tolist()
    return {
        "families": dict(zip(rows.families, counts)),
        "variables": dict(Counter(kind for kind, _, _ in columns.keys)),
        "total_constraints": len(rows.rhs),
        "total_variables": len(columns.keys),
        "binaries": len(columns.binaries),
    }
