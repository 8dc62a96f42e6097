"""Solving: the built-in exact solver and the external-solver bridge.

The built-in backend enumerates all commitment patterns (0/1 assignments of
the binary columns), prunes them with the purely-binary constraint rows
(initial-state fixing, minimal up/downtime), folds single-variable rows into
bounds and solves the remaining LP of each surviving pattern with the bundled
dense simplex.  It is meant as a desk-scale oracle, not a production MIP
solver.

The external backend writes the model to a standard-format file, runs a
solver subprocess via a command template with {model} and {solution}
placeholders, and verifies the returned solution before accepting it.
"""

from __future__ import annotations

import logging
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NumericalFailure,
    ResidualCheckFailed,
    SolverLaunchFailed,
    SolverNonZeroExit,
    TooManyBinaries,
    UnparsableSolution,
)
from .model import SENSE_CODE, SENSES, MilpModel
from .simplex import numerical_guard, solve_dense_lp
from .writers import write_mps

logger = logging.getLogger(__name__)

_SENSE_LE, _SENSE_EQ, _SENSE_GE = SENSE_CODE["<="], SENSE_CODE["="], SENSE_CODE[">="]

#: patterns whose optimum lies within this relative distance of the best tie
TIE_REL_TOL = 1e-9


@dataclass
class SolverConfig:
    backend: str = "builtin-exact"       # "builtin-exact" | "external"
    command_template: str = ""           # e.g. "ucdispatch-mip {model} {solution}"
    binary_budget: int = 24


@dataclass
class Solution:
    values: np.ndarray                   # one value per column; empty unless optimal
    objective: float
    status: str                          # optimal | infeasible | unbounded | limit | error
    backend: str
    wall_time: float


@dataclass
class ResidualReport:
    """Constraint residuals and integrality of a candidate solution."""

    family_residuals: dict[str, float]
    max_residual: float
    integrality_gap: float
    bound_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        worst = max(self.max_residual, self.integrality_gap, self.bound_violation)
        return worst <= self.tolerance


# ---------------------------------------------------------------------------
# exact enumeration backend


class _ExactEngine:
    """Shared machinery for solve_exact and enumerate_optimal_patterns."""

    def __init__(self, model: MilpModel, config: SolverConfig):
        bin_cols = model.binary_columns()
        if len(bin_cols) > config.binary_budget:
            raise TooManyBinaries(
                f"{len(bin_cols)} binary columns exceed the enumeration budget "
                f"of {config.binary_budget}")

        rows = model.rows
        is_bin = np.zeros(model.num_columns, dtype=bool)
        is_bin[bin_cols] = True
        self.bin_cols = bin_cols
        self.cont_cols = np.flatnonzero(~is_bin).tolist()
        self.nc = nc = len(self.cont_cols)
        dense = rows.dense(model.num_columns)
        brows, crows = dense[:, is_bin], dense[:, ~is_bin]

        # rows without a continuous variable prune patterns, rows with one
        # become a bound per pattern, the rest form the LP
        row_ids, nz_cont = rows.row_ids(), ~is_bin[rows.indices]
        n_cont = np.bincount(row_ids[nz_cont], minlength=len(rows.rhs))
        pure, single, lp = n_cont == 0, n_cont == 1, n_cont >= 2
        self.pure_w = brows[pure]
        self.pure_sense = rows.sense[pure]
        self.pure_rhs = rows.rhs[pure]

        single_nz = nz_cont & single[row_ids]
        coef = rows.data[single_nz]
        s_sense = rows.sense[single]
        s_sense = np.where((coef < 0.0) & (s_sense != _SENSE_EQ),
                           _SENSE_LE + _SENSE_GE - s_sense, s_sense)
        self.s_bin, self.s_rhs = brows[single], rows.rhs[single]
        self.s_var = (np.cumsum(~is_bin) - 1)[rows.indices[single_nz]]
        self.s_inv = 1.0 / coef
        self.s_is_ub = (s_sense == _SENSE_LE) | (s_sense == _SENSE_EQ)
        self.s_is_lb = (s_sense == _SENSE_GE) | (s_sense == _SENSE_EQ)

        self.m_bin, self.m_cont, self.m_rhs = brows[lp], crows[lp], rows.rhs[lp]

        # variables with a structurally finite upper bound get an explicit row
        self.fin_vars = np.unique(self.s_var[self.s_is_ub])
        n_fin = len(self.fin_vars)
        eye_rows = np.zeros((n_fin, nc))
        eye_rows[np.arange(n_fin), self.fin_vars] = 1.0
        self.lp_matrix = np.vstack([self.m_cont, eye_rows])
        self.lp_senses = [SENSES[code] for code in rows.sense[lp]] + ["<="] * n_fin

        c = np.zeros(model.num_columns)
        c[list(model.objective)] = list(model.objective.values())
        self.c_cont, self.c_bin = c[~is_bin], c[is_bin]

        # bits fixed by singleton pure equality rows (initial on/off states)
        self.fixed = np.full(len(bin_cols), -1, dtype=np.int8)
        self.contradictory = False
        for w, sense, rhs in zip(self.pure_w, self.pure_sense, self.pure_rhs):
            nz = np.flatnonzero(w)
            if sense == _SENSE_EQ and len(nz) == 1:
                value = rhs / w[nz[0]]
                bit = int(round(value))
                if (abs(value - bit) > 1e-6 or bit not in (0, 1)
                        or self.fixed[nz[0]] not in (-1, bit)):
                    self.contradictory = True
                else:
                    self.fixed[nz[0]] = bit

    def patterns(self):
        """Feasible-by-binary-rows patterns, in lexicographic order."""
        if self.contradictory:
            return
        free = np.flatnonzero(self.fixed < 0)
        template = np.where(self.fixed < 0, 0, self.fixed).astype(np.int8)
        n_free = len(free)
        shifts = np.arange(n_free - 1, -1, -1, dtype=np.int64)
        chunk = 1 << 14
        for start in range(0, 1 << n_free, chunk):
            stop = min(start + chunk, 1 << n_free)
            codes = np.arange(start, stop, dtype=np.int64)
            block = np.repeat(template[None, :], len(codes), axis=0)
            if n_free:
                block[:, free] = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
            if len(self.pure_w):
                lhs = block @ self.pure_w.T
                ok = np.ones(len(codes), dtype=bool)
                le = self.pure_sense == _SENSE_LE
                ge = self.pure_sense == _SENSE_GE
                eq = self.pure_sense == _SENSE_EQ
                if le.any():
                    ok &= (lhs[:, le] <= self.pure_rhs[le] + 1e-9).all(axis=1)
                if ge.any():
                    ok &= (lhs[:, ge] >= self.pure_rhs[ge] - 1e-9).all(axis=1)
                if eq.any():
                    ok &= (np.abs(lhs[:, eq] - self.pure_rhs[eq]) <= 1e-9).all(axis=1)
                block = block[ok]
            yield from block

    def solve_pattern(self, pattern):
        """LP of one commitment pattern; returns (status, objective, values)."""
        nc = self.nc
        lower = np.zeros(nc)
        upper = np.full(nc, np.inf)
        if len(self.s_var):
            vals = (self.s_rhs - self.s_bin @ pattern) * self.s_inv
            np.minimum.at(upper, self.s_var[self.s_is_ub], vals[self.s_is_ub])
            np.maximum.at(lower, self.s_var[self.s_is_lb], vals[self.s_is_lb])
        if np.any(lower > upper + 1e-9):
            return "infeasible", np.inf, None

        b = np.concatenate([
            self.m_rhs - self.m_bin @ pattern - self.m_cont @ lower,
            upper[self.fin_vars] - lower[self.fin_vars],
        ])
        result = solve_dense_lp(self.c_cont, self.lp_matrix, self.lp_senses, b)
        if result.status != "optimal":
            return result.status, np.inf, None
        x = result.x + lower
        objective = float(self.c_cont @ x + self.c_bin @ pattern)
        return "optimal", objective, x

    @numerical_guard("exact solver")
    def optimal(self):
        """The (pattern, objective, values) within TIE_REL_TOL of the best
        optimum, in lexicographic order, or None if a pattern's LP is
        unbounded."""
        best, ties = np.inf, []
        for pattern in self.patterns():
            status, objective, x = self.solve_pattern(pattern)
            if status == "unbounded":
                return None
            if status != "optimal" or objective > _tie_cut(best):
                continue
            if objective < best:
                best = objective
                ties = [tie for tie in ties if tie[1] <= _tie_cut(best)]
            ties.append((pattern.copy(), objective, x))
        return ties


def _tie_cut(best: float) -> float:
    return best + TIE_REL_TOL * (1.0 + abs(best))


def solve_exact(model: MilpModel, config: SolverConfig | None = None) -> Solution:
    """Enumerate commitment patterns and solve each LP with the bundled simplex.

    Of the patterns within TIE_REL_TOL of the best optimum, the
    lexicographically smallest wins, with its own objective and values.
    Raises :class:`TooManyBinaries` when the model exceeds the enumeration
    budget and :class:`NumericalFailure` if the simplex cycling guard trips
    or the arithmetic overflows.
    """
    config = config or SolverConfig()
    started = time.perf_counter()
    engine = _ExactEngine(model, config)
    ties = engine.optimal()
    elapsed = time.perf_counter() - started
    if ties is None:
        return Solution(np.empty(0), -np.inf, "unbounded", "builtin-exact", elapsed)
    if not ties:
        return Solution(np.empty(0), np.inf, "infeasible", "builtin-exact", elapsed)
    pattern, objective, x = ties[0]
    values = np.empty(model.num_columns)
    values[engine.bin_cols], values[engine.cont_cols] = pattern, x
    return Solution(values, objective, "optimal", "builtin-exact", elapsed)


def enumerate_optimal_patterns(model: MilpModel, config: SolverConfig | None = None
                               ) -> list[tuple[int, ...]]:
    """All commitment patterns whose optimum lies within TIE_REL_TOL of the
    best, in lexicographic order; none if the model is unbounded."""
    ties = _ExactEngine(model, config or SolverConfig()).optimal() or []
    return [tuple(int(b) for b in pattern) for pattern, _, _ in ties]


def solve_lp_relaxation(model: MilpModel) -> Solution:
    """Solve the LP relaxation (binaries relaxed to [0, 1]).  Raises
    :class:`NumericalFailure` when the simplex reports an optimum whose point
    breaks a row or a column bound by more than 1e-6, naming the worst."""
    started = time.perf_counter()
    n, rows, bin_cols = model.num_columns, model.rows, model.binary_columns()
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    A = np.vstack([rows.dense(n), np.eye(n)[bin_cols]])
    senses = [SENSES[code] for code in rows.sense] + ["<="] * len(bin_cols)
    b = np.concatenate([rows.rhs, np.ones(len(bin_cols))])
    result = solve_dense_lp(c, A, senses, b)
    elapsed = time.perf_counter() - started
    if result.status != "optimal":
        return Solution(np.empty(0), np.inf, result.status, "lp-relaxation", elapsed)
    # the dense simplex has been seen to stop "optimal" far outside its rows
    check = check_solution(model, result.x)
    violations = {**check.family_residuals, "column bounds": check.bound_violation}
    worst = max(violations, key=violations.get)
    if violations[worst] > check.tolerance:
        raise NumericalFailure(f"the LP relaxation's optimal point violates {worst} "
                               f"by {violations[worst]:.6g}")
    return Solution(result.x, result.objective, "optimal", "lp-relaxation", elapsed)


# ---------------------------------------------------------------------------
# solution checking and parsing


def check_solution(model: MilpModel, values: np.ndarray,
                   tolerance: float = 1e-6) -> ResidualReport:
    """Exact residuals of a candidate solution, one value per column,
    grouped by constraint family; raises ValueError on any other shape."""
    if np.shape(values) != (model.num_columns,):
        raise ValueError(f"expected {model.num_columns} column values, "
                         f"got an array of shape {np.shape(values)}")
    x = np.asarray(values, dtype=float)
    rows = model.rows
    gap = rows.activities(x) - rows.rhs
    # choices in the order of SENSES: <=, =, >=
    residual = np.maximum(np.choose(rows.sense, (gap, np.abs(gap), -gap)), 0.0)
    worst = np.zeros(len(rows.families))
    np.fmax.at(worst, rows.family, residual)
    family_residuals = {family: float(value)
                        for family, value in zip(rows.families, worst) if value > 0.0}

    xb = x[model.binary_columns()]
    integrality = float(np.max(np.minimum(np.abs(xb), np.abs(xb - 1.0)), initial=0.0))
    bound_violation = max(float(np.max(-x, initial=0.0)),
                          float(np.max(xb - 1.0, initial=0.0)))
    return ResidualReport(family_residuals, float(residual.max(initial=0.0)),
                          integrality, bound_violation, tolerance)


def parse_solution_file(text: str, model: MilpModel) -> np.ndarray:
    """Interpret a solver's solution file as one value per column.

    Accepts one entry per line in three shapes: "name value", "name=value",
    and indexed rows "<row#> name value [extra]".  Header/status lines are
    skipped and unknown variable names ignored; model columns absent from
    the file default to 0.  Each of the three logs at most one warning,
    with a count and the first five entries.  Raises
    :class:`UnparsableSolution` when a line mentions a known column but its
    value cannot be read.
    """
    known = model.columns.by_name
    values = np.zeros(model.num_columns)
    found = np.zeros(model.num_columns, dtype=bool)
    unknown, unrecognized = [], []

    def read_value(name: str, raw: str, line: str):
        try:
            value = float(raw)
        except ValueError:
            raise UnparsableSolution(
                f"cannot parse value {raw!r} for column {name!r} in line {line!r}"
            ) from None
        values[known[name]] = value
        found[known[name]] = True

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line[0] in "#*\\" or line.startswith("//") or line.startswith("="):
            continue
        if "=" in line:
            name, _, raw = line.partition("=")
            name, raw = name.strip(), raw.strip()
            if name in known:
                read_value(name, raw, line)
            else:
                unknown.append(repr(line))
            continue
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] in known:
            read_value(tokens[0], tokens[1], line)
        elif len(tokens) in (3, 4) and tokens[1] in known and _is_int(tokens[0]):
            read_value(tokens[1], tokens[2], line)
        elif tokens[0] in known:
            raise UnparsableSolution(f"malformed entry for column {tokens[0]!r}: {line!r}")
        else:
            unrecognized.append(repr(line))

    _warn_some("unknown entries ignored", unknown)
    _warn_some("unrecognized lines skipped", unrecognized)
    _warn_some("columns missing, defaulting to 0",
               [model.columns.names[col] for col in np.flatnonzero(~found)])
    return values


def _warn_some(what: str, entries: list[str]) -> None:
    if entries:
        logger.warning("solution file: %d %s: %s%s", len(entries), what,
                       ", ".join(entries[:5]), ", ..." if len(entries) > 5 else "")


def accept_solution(text: str, model: MilpModel) -> tuple[np.ndarray, float]:
    """The column values of a solver's solution file and their objective.

    Raises :class:`ResidualCheckFailed` if the values violate the model
    beyond :func:`check_solution`'s default tolerance.
    """
    values = parse_solution_file(text, model)
    report = check_solution(model, values)
    if not report.passed:
        raise ResidualCheckFailed(
            f"solution violates the model: max residual {report.max_residual:g}, "
            f"integrality gap {report.integrality_gap:g}")
    return values, model.objective_value(values)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# external solver bridge


def solve_external(model: MilpModel, config: SolverConfig) -> Solution:
    """Run an external MILP solver subprocess on the MPS emission.

    The command template must contain {model} and {solution} placeholders.
    The returned values are verified with :func:`accept_solution` before the
    solution is accepted.
    """
    if not config.command_template:
        raise SolverLaunchFailed("no solver command template configured")

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ucdispatch-") as tmp:
        model_path = Path(tmp) / "model.mps"
        solution_path = Path(tmp) / "model.sol"
        model_path.write_text(write_mps(model), encoding="utf-8")

        command = [
            part.replace("{model}", str(model_path))
                .replace("{solution}", str(solution_path))
            for part in shlex.split(config.command_template)
        ]
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise SolverLaunchFailed(f"cannot launch {command[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise SolverNonZeroExit(
                f"solver exited with {proc.returncode}: "
                f"{(proc.stderr or proc.stdout).strip()[:500]}")
        try:
            text = solution_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UnparsableSolution(f"solver wrote no solution file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UnparsableSolution(f"solution file is not UTF-8 text: {exc}") from exc

        return Solution(*accept_solution(text, model), "optimal", "external",
                        time.perf_counter() - started)


def solve(model: MilpModel, config: SolverConfig | None = None) -> Solution:
    """Dispatch to the configured backend."""
    config = config or SolverConfig()
    if config.backend == "external":
        return solve_external(model, config)
    return solve_exact(model, config)
