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
family code, made in one pass by :meth:`RowMatrix.from_blocks` from one
:class:`RowBlock` per family and unit, its terms vectorised over periods.
It stores its columns once, as ``MilpModel.columns``: each column's (kind,
unit, period) key and name, the name -> column and key -> column maps and
the binary columns.  Every consumer (exact engine, residual check, MPS/LP
writers, solution parser, reports) reads only ``rows`` and ``columns``, so
a built model is read-only.  ``MilpModel.constraints`` is a view that makes
:class:`LinearConstraint` objects from ``rows`` on each access.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class RowBlock(NamedTuple):
    """Rows of one family for :meth:`RowMatrix.from_blocks`: row i is named
    ``family[keys[i]]``.  ``rhs`` is one value or one per row.  A term
    ``(columns, values)`` puts one nonzero in every row, ``(rows, columns,
    values)`` one in each listed row; scalars broadcast.  No row may name a
    column twice."""

    family: str
    keys: Sequence
    sense: str
    rhs: float | np.ndarray
    terms: list[tuple]


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
    def from_blocks(cls, blocks) -> RowMatrix:
        """The rows of ``blocks``, block after block, with zero values dropped
        and each row's columns sorted; families are numbered in the order in
        which they first appear."""
        blocks = [block for block in blocks if len(block.keys)]
        sizes = [len(block.keys) for block in blocks]
        families = {f: i for i, f in enumerate(dict.fromkeys(b.family for b in blocks))}
        rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
        rhs, start = [np.zeros(0)], 0
        for block, size in zip(blocks, sizes):
            every = np.arange(start, start + size)
            rhs.append([block.rhs] * size if np.isscalar(block.rhs) else block.rhs)
            for *at, columns, values in block.terms:
                rows.append(every[at[0]] if at else every)
                cols.append(columns)
                vals.append([values] * len(columns) if np.isscalar(values) else values)
            start += size
        row, col, val = map(np.concatenate, (rows, cols, vals))
        keep = val != 0.0
        row, col, val = row[keep], col[keep], val[keep]
        # (row, column) order as one argsort of row * width + column
        order = np.argsort(row * (int(col.max(initial=0)) + 1) + col, kind="stable")
        return cls(
            np.concatenate([[0], np.cumsum(np.bincount(row, minlength=start))]),
            col[order].astype(np.int32), val[order],
            np.repeat([SENSE_CODE[block.sense] for block in blocks], sizes).astype(np.int8),
            np.concatenate(rhs),
            np.repeat([families[block.family] for block in blocks], sizes).astype(np.int64),
            tuple(families),
            tuple(f"{block.family}[{key}]" for block in blocks for key in block.keys))

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


def _pairs(outer, inner, keep):
    """The pairs (o, i) of ``outer`` x ``inner`` with ``keep(o, i)``, as two
    arrays in outer-major order."""
    at_outer, at_inner = np.nonzero(keep(outer[:, None], inner[None, :]))
    return outer[at_outer], inner[at_inner]


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
        """The column of (kind, j, k); ``k`` may be an array of periods, since
        a (kind, unit)'s columns are consecutive for periods 1..T."""
        return columns.by_key[(kind, j, 1)] - 1 + k

    # --- objective -----------------------------------------------------------
    for u in units:
        for k in range(1, T + 1):
            objective[col("cp", u.unit_id, k)] = 1.0
            objective[col("cu", u.unit_id, k)] = 1.0
            objective[col("cd", u.unit_id, k)] = 1.0
    # the slacks are MW for one period of L hours; their penalties are per MWh
    slack_costs = [("p_under", g.under_prod_penalty * L),
                   ("r_under", g.under_reserve_penalty * L),
                   ("p_over", g.over_prod_penalty * L)]
    for kind, cost in slack_costs:
        if not np.isfinite(cost):
            raise DomainError(f"the {kind} objective coefficient (penalty * L) is "
                              "not finite: the inputs overflow in it")
    for k in range(1, T + 1):
        for kind, cost in slack_costs:
            if cost != 0.0:
                objective[col(kind, None, k)] = cost

    # --- rows, one block per family and unit ---------------------------------
    periods, ks, last = np.arange(1, T + 1), np.arange(2, T + 1), np.array([T])
    # the row keys "j,k" of each unit for periods 1..T
    jk = {u.unit_id: [f"{u.unit_id},{k}" for k in range(1, T + 1)] for u in units}
    blocks = []

    # --- initial state fixing ------------------------------------------------
    for u in units:
        j, n = u.unit_id, u.initial_uptime
        blocks.append(RowBlock("initial-on", jk[j][:n], "=", 1.0,
                               [(col("v", j, periods[:n]), 1.0)]))
    for u in units:
        j, n = u.unit_id, u.initial_downtime
        blocks.append(RowBlock("initial-off", jk[j][:n], "=", 0.0,
                               [(col("v", j, periods[:n]), 1.0)]))

    # --- minimal up/downtime -------------------------------------------------
    # A startup in period k (v(k) - v(k-1) = 1) forces v(k+i) = 1 for the next
    # UT-1 periods; shutdowns are handled symmetrically.
    for u in units:
        j = u.unit_id
        k, i = _pairs(np.arange(u.initial_uptime + 2, T + 1), np.arange(1, u.min_uptime),
                      lambda k, i: i <= T - k)
        blocks.append(RowBlock(
            "min-up", [f"{j},{a},{b}" for a, b in zip(k.tolist(), i.tolist())], ">=", 0.0,
            [(col("v", j, k + i), 1.0), (col("v", j, k), -1.0), (col("v", j, k - 1), 1.0)]))
    for u in units:
        j = u.unit_id
        k, i = _pairs(np.arange(u.initial_downtime + 2, T + 1),
                      np.arange(1, u.min_downtime), lambda k, i: i <= T - k)
        blocks.append(RowBlock(
            "min-down", [f"{j},{a},{b}" for a, b in zip(k.tolist(), i.tolist())], "<=", 1.0,
            [(col("v", j, k + i), 1.0), (col("v", j, k - 1), 1.0), (col("v", j, k), -1.0)]))

    # --- production bounds, three rows per period ----------------------------
    first = 3 * (periods - 1)
    for u in units:
        j = u.unit_id
        v, p, pm = col("v", j, periods), col("p", j, periods), col("p_max", j, periods)
        blocks.append(RowBlock(
            "bounds", [f"{key},{i}" for key in jk[j] for i in (1, 2, 3)], "<=", 0.0,
            [(first, v, u.p_min), (first, p, -1.0), (first + 1, p, 1.0),
             (first + 1, pm, -1.0), (first + 2, pm, 1.0), (first + 2, v, -u.p_max)]))

    # --- ramping -------------------------------------------------------------
    # The tightening constants use max(P_min, 0): the best variable-free lower
    # bound on the previous production, valid also for storage units.
    for u in units:
        j = u.unit_id
        base = max(u.p_min, 0.0)
        rtu = min(u.startup_ramp, base + L * u.ramp_up) if ramp_tightening else 0.0
        blocks.append(RowBlock(
            "ramp-up", jk[j][1:], "<=", u.startup_ramp - rtu,
            [(col("p_max", j, ks), 1.0), (col("p", j, ks - 1), -1.0),
             (col("v", j, ks - 1), u.startup_ramp - L * u.ramp_up),
             (col("v", j, ks), -rtu)]))
        rtd = min(u.shutdown_ramp, base + L * u.ramp_down) if ramp_tightening else 0.0
        blocks.append(RowBlock(
            "ramp-down", jk[j][1:], ">=", rtd - u.shutdown_ramp,
            [(col("p", j, ks), 1.0), (col("p", j, ks - 1), -1.0),
             (col("v", j, ks), L * u.ramp_down - u.shutdown_ramp),
             (col("v", j, ks - 1), rtd)]))
        blocks.append(RowBlock(
            "shutdown-limit", jk[j][:-1], "<=", 0.0,
            [(col("p_max", j, ks - 1), 1.0), (col("v", j, ks - 1), -u.shutdown_ramp),
             (col("v", j, ks), u.shutdown_ramp - u.p_max)]))

    # --- storage -------------------------------------------------------------
    for u in storage:
        j = u.unit_id
        blocks += [
            RowBlock("storage-cap", jk[j], "<=", u.storage_capacity,
                     [(col("s", j, periods), 1.0)]),
            RowBlock("consumption-cap", jk[j], "<=", max(0.0, -u.p_min),
                     [(col("c", j, periods), 1.0)]),
            RowBlock("storage-balance", jk[j][1:], "=", L * u.storage_inflow,
                     [(col("s", j, ks), 1.0), (col("s", j, ks - 1), -1.0),
                      (col("c", j, ks - 1), -L * u.storage_efficiency),
                      (col("p", j, ks - 1), L)]),
            RowBlock("storage-initial", [j], "=", u.initial_storage,
                     [(col("s", j, periods[:1]), 1.0)]),
            RowBlock("storage-final", [j], "=", u.final_storage - L * u.storage_inflow,
                     [(col("s", j, last), 1.0),
                      (col("c", j, last), L * u.storage_efficiency),
                      (col("p", j, last), -L)]),
        ]

    # --- demand and reserve with slacks --------------------------------------
    blocks.append(RowBlock(
        "demand", range(1, T + 1), "=", np.asarray(instance.periods.demand, dtype=float),
        [*((col("p", u.unit_id, periods), 1.0) for u in units),
         *((col("c", u.unit_id, periods), -1.0) for u in storage),
         (col("p_under", None, periods), 1.0), (col("p_over", None, periods), -1.0)]))
    blocks.append(RowBlock(
        "reserve", range(1, T + 1), ">=", np.asarray(instance.periods.reserve, dtype=float),
        [*((col(kind, u.unit_id, periods), value) for u in units
           for kind, value in (("p_max", 1.0), ("p", -1.0))),
         *((col("c", u.unit_id, periods), 1.0) for u in storage),
         (col("r_under", None, periods), 1.0)]))

    # --- production cost equalities ------------------------------------------
    for u in units:
        j = u.unit_id
        fc = np.asarray(instance.periods.fuel_cost[u.fuel_type], dtype=float)
        # an overflow here is reported as a DomainError naming the row
        with np.errstate(over="ignore", invalid="ignore"):
            var_rate = (u.var_fuel * fc + u.var_cost) * L
            fixed_rate = (u.fixed_fuel * fc + u.fixed_cost) * L
        blocks.append(RowBlock(
            "prod-cost", jk[j], "=", 0.0,
            [(col("cp", j, periods), 1.0), (col("p", j, periods), -var_rate),
             (col("v", j, periods), -fixed_rate)]))

    # --- shutdown cost epigraph ----------------------------------------------
    for u in units:
        j = u.unit_id
        blocks.append(RowBlock(
            "shutdown-cost", jk[j][1:], ">=", 0.0,
            [(col("cd", j, ks), 1.0), (col("v", j, ks - 1), -u.shutdown_cost),
             (col("v", j, ks), u.shutdown_cost)]))

    # --- startup cost epigraph over thinned group starts ---------------------
    # cu(j,k) >= step(t) * (v(j,k) - sum_{n=1..t} v(j,k-n)) for group starts
    # t < k.  The right-hand term is 1 exactly when the unit starts in k after
    # at least t offline periods.  The window v(k-t..k-1) is one ragged term.
    for u in units:
        j = u.unit_id
        curve = thinned.get(j)
        starts = np.array(curve.group_starts() if curve is not None else [], dtype=np.int64)
        steps = np.array([curve.steps[t] for t in starts.tolist()], dtype=float)
        k, g = _pairs(periods, np.arange(len(starts)), lambda k, g: starts[g] < k)
        t, step = starts[g], steps[g]
        row = np.repeat(np.arange(len(k)), t)
        offset = np.arange(len(row)) - np.repeat(np.cumsum(t) - t, t)
        blocks.append(RowBlock(
            "startup-cost",
            [f"{j},{a},{b}" for a, b in zip(k.tolist(), t.tolist())], ">=", 0.0,
            [(col("cu", j, k), 1.0), (col("v", j, k), -step),
             (row, col("v", j, (k - t)[row] + offset), step[row])]))

    matrix = RowMatrix.from_blocks(blocks)
    finite = np.isfinite(matrix.data)
    if not (finite.all() and np.isfinite(matrix.rhs).all()):
        bad = min([*np.flatnonzero(~np.isfinite(matrix.rhs)).tolist(),
                   *matrix.row_ids()[~finite].tolist()])
        raise DomainError(f"row {matrix.names[bad]} has a coefficient or right-hand "
                          "side that is not finite: the inputs overflow in it")
    return MilpModel(columns, matrix, objective)


def model_stats(model: MilpModel) -> dict:
    """Constraint and nonzero counts per family and variable counts per kind."""
    rows, columns = model.rows, model.columns
    counts = np.bincount(rows.family, minlength=len(rows.families)).tolist()
    nonzeros = np.bincount(rows.family, weights=np.diff(rows.indptr),
                           minlength=len(rows.families)).astype(np.int64).tolist()
    return {
        "families": dict(zip(rows.families, counts)),
        "nonzeros": dict(zip(rows.families, nonzeros)),
        "variables": dict(Counter(kind for kind, _, _ in columns.keys)),
        "total_constraints": len(rows.rhs),
        "total_variables": len(columns.keys),
        "binaries": len(columns.binaries),
    }
