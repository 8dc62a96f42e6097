"""Solving: the built-in exact solver and the external-solver bridge.

The built-in backend enumerates all commitment patterns (0/1 assignments of
the binary columns) a block of PATTERN_BLOCK at a time.  For a whole block it
prunes them with the purely-binary constraint rows (initial-state fixing,
minimal up/downtime), folds single-variable rows into each pattern's bounds
and drops the patterns whose bounds cross; then it solves the remaining LP of
each surviving pattern with the bundled dense simplex.  It is meant as a
desk-scale oracle, not a production MIP solver.  The walk goes down from
the pattern with every free bit on in lexicographic order: the all-on
pattern is often the best, so the running best and the dual pool prune from
the first pattern on, and the duals of a pattern's neighbours bound it.

A block's row sums ``rhs - w . pattern`` are built by one prefix walk: the
binary columns are subtracted in order, and each free one doubles the sums
of every prefix of free bits into those of its two extensions, so each sum
has the same bits as the sum taken alone for its pattern.  The walk drops a
prefix, and every pattern below it, at the column that settles a row it
fails (Land and Doig's depth-first bound, applied to the screen).  It runs
three times per block: over the binary rows; over the bound rows of the
patterns that pass them, dropping a prefix as soon as two settled bounds of
one variable cross; and over the LP rows of the patterns whose bounds do
not cross.  A family of rows whose sums could overflow is checked only at
the leaves, as a whole, so that an overflow raises where it always did.

Every pattern's LP has the same matrix, senses and costs; only its
right-hand side ``b`` and the shift ``lower`` (its variables' lower bounds)
change.  So the optimal dual ``y`` of one pattern's LP, once checked
feasible (``c - A'y >= -1e-9``, signs clipped), bounds every other
pattern's optimum from below by ``y.b + c.lower + c_bin.pattern`` (weak
duality, as in Benders' cuts).  The engine keeps the last DUAL_POOL such
duals and skips a pattern's LP when the best bound exceeds the tie cut by
more than DUAL_SKIP_REL * (1 + |best|), a thousand times TIE_REL_TOL.  A
skipped pattern lies above the tie cut, so it could neither lower the best
optimum nor join the ties.  The bounds are taken a window of patterns at a
time, in one product: the window restarts at one pattern after each LP and
doubles while every bound in it prunes, so a run of k skipped patterns
costs about log2(k) products.

For the same reason a new ``b`` leaves the last optimal basis dual
feasible, so each LP starts warm from it and from the final tableau that
its result carries (a dual simplex, see ``simplex``).  A warm "infeasible"
comes with a ray that ``simplex`` has checked against the original rows,
so it stands.  A warm optimum only steers the walk: every pattern whose
warm optimum lies within the skip margin of the final best's tie cut is
solved cold again at the end.  The cold results alone decide the ties, so
the answer and every report are those of a full enumeration that
cold-solves every pattern.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    IoFailure,
    NumericalFailure,
    ResidualCheckFailed,
    SolverLaunchFailed,
    SolverNonZeroExit,
    TooManyBinaries,
    UnparsableSolution,
)
from .model import SENSE_CODE, SENSES, MilpModel
from .simplex import TOL, numerical_guard, solve_dense_lp
from .writers import write_file, write_mps

logger = logging.getLogger(__name__)

_SENSE_LE, _SENSE_EQ, _SENSE_GE = SENSE_CODE["<="], SENSE_CODE["="], SENSE_CODE[">="]

#: patterns whose optimum lies within this relative distance of the best tie
TIE_REL_TOL = 1e-9
#: how many of the last feasible pattern-LP duals bound the next patterns
DUAL_POOL = 8
#: a pattern is skipped when a dual bound exceeds the tie cut by this much,
#: relative to 1 + |best|; far above the dual's rounding error
DUAL_SKIP_REL = 1e-6
#: patterns whose binary rows and bounds are checked at once
PATTERN_BLOCK = 1 << 12
#: slack of a pattern's binary-row residuals and of its bound crossing:
#: room for the rounding of a short sum of input coefficients, no more
PATTERN_TOL = 1e-9
#: how far a fixing row's value may lie from 0 or 1 and still fix its bit;
#: the rounding of one quotient of two inputs lies far inside it
FIXING_TOL = 1e-6
#: check_solution's default: an external MILP solver meets the rows only
#: to its own feasibility tolerance, 1e-6 in HiGHS
RESIDUAL_TOL = 1e-6


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
    stats: dict = field(default_factory=dict)   # solver counters, by name


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
        # inf for a subnormal coefficient: patterns() then raises
        # NumericalFailure on the pattern's bounds that are not finite
        with np.errstate(over="ignore"):
            self.s_inv = 1.0 / coef
        self.s_is_ub = (s_sense == _SENSE_LE) | (s_sense == _SENSE_EQ)
        self.s_is_lb = (s_sense == _SENSE_GE) | (s_sense == _SENSE_EQ)
        # the single rows of each variable's bound as one run, in row order
        self.ub_rows, self.fin_vars, self.ub_starts = _runs(self.s_var, self.s_is_ub)
        self.lb_rows, self.lb_vars, self.lb_starts = _runs(self.s_var, self.s_is_lb)
        # the lower-bound runs of fin_vars alone, the only variables whose
        # bounds can cross, and where each one sits among fin_vars
        self.fin_lb_rows, fin_lb_vars, self.fin_lb_starts = _runs(
            self.s_var, self.s_is_lb & np.isin(self.s_var, self.fin_vars))
        self.fin_lb_at = np.searchsorted(self.fin_vars, fin_lb_vars)

        self.m_bin, self.m_cont, self.m_rhs = brows[lp], crows[lp], rows.rhs[lp]
        # the lower bounds enter b only through the LP rows that hold their
        # variables: a zero term elsewhere could change only the sign of a
        # zero, and only a row whose rhs is -0.0 ever sums to one.  Round k
        # subtracts the k-th such term of each row, so each row takes its
        # terms in variable order
        neg_zero = (self.m_rhs == 0.0) & np.signbit(self.m_rhs)
        touched = (self.m_cont[:, self.lb_vars] != 0.0) | neg_zero[:, None]
        rank = np.cumsum(touched, axis=1) - 1
        self.lower_rounds = []
        for k in range(touched.sum(axis=1).max(initial=0)):
            lp_rows, terms = np.nonzero(touched & (rank == k))
            var = self.lb_vars[terms]
            self.lower_rounds.append((lp_rows, var, self.m_cont[lp_rows, var]))

        # variables with a structurally finite upper bound get an explicit row
        n_fin = len(self.fin_vars)
        eye_rows = np.zeros((n_fin, nc))
        eye_rows[np.arange(n_fin), self.fin_vars] = 1.0
        self.lp_matrix = np.vstack([self.m_cont, eye_rows])
        lp_sense = np.concatenate([rows.sense[lp], np.full(n_fin, _SENSE_LE)])
        self.lp_senses = [SENSES[code] for code in lp_sense]
        self.lp_le, self.lp_ge = lp_sense == _SENSE_LE, lp_sense == _SENSE_GE

        c = np.zeros(model.num_columns)
        c[list(model.objective)] = list(model.objective.values())
        self.c_cont, self.c_bin = c[~is_bin], c[is_bin]

        self.stats = dict.fromkeys(
            ("patterns", "bound_infeasible", "dual_pruned", "lps", "warm", "rejected",
             "resolved", "pivots"), 0)

        # bits fixed by singleton pure equality rows (initial on/off states);
        # a row that conflicts with an earlier one or whose value is no bit
        # fixes nothing, and the binary-row check rejects every pattern
        self.fixed = np.full(len(bin_cols), -1, dtype=np.int8)
        for w, sense, rhs in zip(self.pure_w, self.pure_sense, self.pure_rhs):
            nz = np.flatnonzero(w)
            if sense == _SENSE_EQ and len(nz) == 1 and self.fixed[nz[0]] < 0:
                value = rhs / w[nz[0]]
                bit = int(round(value))
                if abs(value - bit) <= FIXING_TOL and bit in (0, 1):
                    self.fixed[nz[0]] = bit
        self.free = np.flatnonzero(self.fixed < 0)

        # the screen's checks, by depth (binary columns walked).  A row's sum
        # is settled one past its last nonzero binary column, unless a sum
        # of its family could overflow on the way: then the family is
        # checked at the leaves, where patterns() forms the bounds whole.
        # The bound checks take pairs (lo, up) of one variable's rows, up an
        # upper bound and lo a lower bound or up itself: its bounds cross
        # where max(0, lo) > up + PATTERN_TOL for a pair.  A pair is checked
        # before the leaves if the ranges of its bounds let it cross at all
        n_bin = len(bin_cols)
        settled = ((brows != 0.0) * np.arange(1, n_bin + 1)).max(axis=1, initial=0)
        ub = np.flatnonzero(self.s_is_ub)
        pairs = (self.s_var[:, None] == self.s_var[ub]) & self.s_is_lb[:, None]
        pairs[ub, np.arange(len(ub))] = True
        lo, up = np.nonzero(pairs)
        up = ub[up]
        with np.errstate(over="ignore", invalid="ignore"):
            reach = 2.0 * (np.abs(rows.rhs) + np.abs(brows).sum(axis=1))
            pure_at = np.where(np.isfinite(reach[pure]).all(), settled[pure], n_bin)
            s_at = np.where(np.isfinite(reach[single] * self.s_inv).all(), settled[single], n_bin)
            base = self.s_rhs - self.s_bin @ np.maximum(self.fixed, 0)
            free_w = self.s_bin[:, self.free]
            ends = np.stack([base - np.maximum(free_w, 0.0).sum(axis=1),
                             base - np.minimum(free_w, 0.0).sum(axis=1)]) * self.s_inv
            least, most = ends.min(axis=0), ends.max(axis=0)
            may_cross = np.where(lo == up, least[up] < 0.0, np.maximum(most[lo], 0.0) > least[up])
        lo, up = lo[may_cross], up[may_cross]
        self.bound_checks = {depth: _cross_check(lo[items], up[items], self.s_inv)
                             for depth, items in _by_depth(np.maximum(s_at[lo], s_at[up]), n_bin)}
        # the binary rows as "sum <= PATTERN_TOL", in the order they settle:
        # a row that must not go below -PATTERN_TOL is negated, which negates
        # each of its sums exactly, and an equality row goes both ways
        above, below = self.pure_sense != _SENSE_LE, self.pure_sense != _SENSE_GE
        fit = np.concatenate([np.flatnonzero(above), np.flatnonzero(below)])
        sign = np.repeat([1.0, -1.0], [above.sum(), below.sum()])
        order = np.argsort(pure_at[fit], kind="stable")
        fit, sign = fit[order], sign[order]
        self.fit_rhs, self.fit_w = self.pure_rhs[fit] * sign, self.pure_w[fit] * sign[:, None]
        self.fit_checks = {depth: _fit_check(slice(items[0], items[-1] + 1))
                           for depth, items in _by_depth(pure_at[fit], n_bin + 1)}

    def patterns(self):
        """``(patterns, lower, b)`` of the patterns that the binary rows and
        their own bounds allow, a batch of rows at a time: ``lower`` is each
        pattern's shift and ``b`` the right-hand side of its LP over
        ``x - lower``.  The walk goes down from the all-on pattern (every
        free bit on) in descending lexicographic order, a batch per block
        of PATTERN_BLOCK codes.  Each block takes three prefix walks of
        ``row_sums``: the binary rows, checked as they settle; the
        single-variable rows of the patterns that pass, whose bound pairs
        drop a prefix as soon as they cross; and the LP rows of the
        patterns whose bounds do not cross.  At the leaves the bounds are
        formed and checked as a whole.  A pattern whose bounds or ``b``
        overflow raises :class:`NumericalFailure` at its place in the walk,
        after the batch of the patterns before it, so that an earlier
        pattern's LP fails first."""
        template = np.where(self.fixed < 0, 0, self.fixed).astype(np.int8)
        shifts = np.arange(len(self.free) - 1, -1, -1, dtype=np.int64)
        for stop in range(1 << len(self.free), 0, -PATTERN_BLOCK):
            # row_sums takes the codes ascending; the rows are turned at the end
            codes = np.arange(max(stop - PATTERN_BLOCK, 0), stop, dtype=np.int64)
            codes, _ = self.row_sums(self.fit_rhs, self.fit_w, codes, self.fit_checks)
            passed = len(codes)
            if not passed:
                continue
            self.stats["patterns"] += passed

            with np.errstate(over="ignore", invalid="ignore"):
                codes, vals = self.row_sums(self.s_rhs, self.s_bin, codes, self.bound_checks)
                vals *= self.s_inv
                # the bounds of fin_vars first: the patterns they cross get
                # no other bound
                upper = np.minimum.reduceat(vals[:, self.ub_rows], self.ub_starts, axis=1)
                fin_lower = np.zeros_like(upper)
                fin_lower[:, self.fin_lb_at] = np.maximum(0.0, np.maximum.reduceat(
                    vals[:, self.fin_lb_rows], self.fin_lb_starts, axis=1))
                finite = np.isfinite(vals).all(axis=1)
                crossed = finite & (fin_lower > upper + PATTERN_TOL).any(axis=1)
                self.stats["bound_infeasible"] += passed - len(codes) + int(crossed.sum())
                if crossed.any():
                    kept = ~crossed
                    codes, vals, upper, finite = codes[kept], vals[kept], upper[kept], finite[kept]
                lower = np.zeros((len(codes), self.nc))
                lower[:, self.lb_vars] = np.maximum(0.0, np.maximum.reduceat(
                    vals[:, self.lb_rows], self.lb_starts, axis=1))
                del vals   # its memory serves the LP rows' sums
                _, b = self.row_sums(self.m_rhs, self.m_bin, codes)
                for lp_rows, var, coef in self.lower_rounds:
                    b[:, lp_rows] -= lower[:, var] * coef
                b = np.hstack([b, upper - lower[:, self.fin_vars]])
                finite &= np.isfinite(b).all(axis=1)
            # the walk's order; contiguous rows keep the dual bounds' products on BLAS
            codes, lower, b, finite = codes[::-1], lower[::-1].copy(), b[::-1].copy(), finite[::-1]
            block = np.repeat(template[None, :], len(codes), axis=0)
            block[:, self.free] = (codes[:, None] >> shifts) & 1
            bad = np.flatnonzero(~finite)
            if len(bad):
                yield block[:bad[0]], lower[:bad[0]], b[:bad[0]]
                raise NumericalFailure("exact solver arithmetic failed: overflow in the LP "
                                       f"bounds of pattern {''.join(map(str, block[bad[0]]))}")
            yield block, lower, b

    def row_sums(self, rhs, w, codes, checks=()):
        """The ascending ``codes`` that ``checks`` keep, and ``rhs - w @
        pattern`` of the pattern of each, as rows: the screen's one prefix
        walk.  A free column doubles the partial sums of each prefix of
        free bits into those of its two extensions and drops the
        extensions that no code has.  After ``depth`` binary columns,
        ``checks[depth]``, if there is one, takes the partial sums and keeps
        the prefixes for which it is true, with every code below them.
        Each sum still takes ``bit * w[:, j]`` off in column order, as it
        would alone, so a row has the same bits whatever patterns share its
        block, which a BLAS product does not promise (it takes another
        path for a block of one row)."""
        n_free = len(self.free)
        # a run of codes, such as a whole block, lacks only extensions
        # below its first or last code, so the walk needs just its prefixes;
        # other codes come with their prefix tree, planned again after a cut
        run = len(codes) and codes[-1] - codes[0] == len(codes) - 1
        heads, planned = codes[:1] >> n_free, 0
        if not run:
            starts, rank, into = _plan(codes, n_free, planned)
        sums = np.repeat(rhs[None, :], len(heads), axis=0)
        # bit * w[:, j] for bit 0 and 1, per column, each pair contiguous
        steps = np.ascontiguousarray(np.stack([0.0 * w.T, w.T], axis=1))
        level = 0   # free columns walked
        for depth in range(len(self.fixed) + 1):
            if not len(sums):
                break
            if depth:
                bit, step = self.fixed[depth - 1], steps[depth - 1]
                if bit >= 0:
                    sums -= step[bit]
                elif not run:
                    level += 1
                    sums = (sums[:, None, :] - step).reshape(2 * len(sums), len(rhs))
                    extended = into[level - 1 - planned][starts[level - planned]]
                    if len(extended) < len(sums):
                        sums = sums[extended]
                else:
                    level += 1
                    first, last = codes[0] >> n_free - level, codes[-1] >> n_free - level
                    if first == last:
                        heads = 2 * heads + (first & 1)
                        sums -= step[first & 1]
                    else:
                        heads = np.repeat(2 * heads, 2)
                        heads[1::2] += 1
                        sums = (sums[:, None, :] - step).reshape(len(heads), len(rhs))
                        cut = int(heads[0] < first), len(heads) - int(heads[-1] > last)
                        heads, sums = heads[cut[0]:cut[1]], sums[cut[0]:cut[1]]
            if depth in checks:
                keep = checks[depth](sums)
                if not keep.all():
                    sums = sums[keep]
                    if run:
                        heads = heads[keep]
                    else:
                        codes, planned = codes[keep[rank[level - planned]]], level
                        starts, rank, into = _plan(codes, n_free, planned)
        return heads if run else codes, sums

    @numerical_guard("exact solver")
    def optimal(self):
        """The (pattern, objective, values) within TIE_REL_TOL of the best
        optimum, in lexicographic order, or None if a pattern's LP is
        unbounded.  The walk takes the patterns in the descending order of
        ``patterns()``, so the all-on pattern, often the best, seeds the
        running best, the warm start and the dual pool.  Each later LP with
        rows starts warm from the last optimal basis (a warm "infeasible"
        is certified by its ray).  The running best only prunes the walk,
        by the skip cut of its dual bounds and optima.  The candidates, the
        optima within the skip cut of the final best, are solved cold where
        warm, and the ties are the cold results within the tie cut of their
        own best; both cuts rise with the best, so the walk need not filter.
        A candidate keeps only its cold values, not the tableau.
        ``self.stats`` counts what became of each pattern."""
        stats = self.stats

        def lp(b, start=None):
            result = solve_dense_lp(self.c_cont, self.lp_matrix, self.lp_senses, b,
                                    start=start)
            stats["pivots"] += result.iterations
            return result

        duals = np.empty((0, len(self.lp_senses)))
        best, candidates, start, window = np.inf, [], None, 1
        for patterns, lowers, bs in self.patterns():
            with np.errstate(over="ignore", invalid="ignore"):
                lower_cost, bit_cost = lowers @ self.c_cont, patterns @ self.c_bin
            i = 0
            while i < len(bs):
                cut = _skip_cut(best)
                if len(duals):
                    # the pooled dual bounds of a window of patterns at once:
                    # the window doubles while every bound in it prunes
                    stop = min(i + window, len(bs))
                    with np.errstate(over="ignore", invalid="ignore"):
                        bounds = ((bs[i:stop] @ duals.T).max(axis=1)
                                  + lower_cost[i:stop]) + bit_cost[i:stop]
                    held = ~(np.isfinite(bounds) & (bounds > cut))
                    skipped = int(np.argmax(held)) if held.any() else stop - i
                    stats["dual_pruned"] += skipped
                    i += skipped
                    if i == stop:
                        window *= 2
                        continue
                    # a bound that overflowed is taken again alone, so that
                    # it raises where the walk reaches its pattern
                    if not np.isfinite(bounds[skipped]) and (
                            float(np.max(duals @ bs[i])) + self.c_cont @ lowers[i]
                            + self.c_bin @ patterns[i] > cut):
                        stats["dual_pruned"] += 1
                        i += 1
                        continue
                pattern, lower, b = patterns[i], lowers[i], bs[i]
                i, window = i + 1, 1
                result = lp(b, start)
                stats["lps"] += 1
                stats["warm"] += result.warm
                stats["rejected"] += result.rejected
                if result.status == "unbounded":
                    return None
                if result.status != "optimal":
                    continue
                # a row-less LP is optimal at x = 0 cold, with no pivot
                start = result if len(b) else None
                # the dual, clipped to its signs, joins the pool if it keeps
                # every reduced cost
                y = result.dual.copy()
                y[self.lp_le] = np.minimum(y[self.lp_le], 0.0)
                y[self.lp_ge] = np.maximum(y[self.lp_ge], 0.0)
                if np.all(self.c_cont - self.lp_matrix.T @ y >= -TOL):
                    duals = np.vstack([duals, y])[-DUAL_POOL:]
                objective = float(self.c_cont @ (result.x + lower) + self.c_bin @ pattern)
                if objective <= cut:
                    best = min(best, objective)
                    candidates.append((pattern.copy(), objective, lower.copy(), b.copy(),
                                       None if result.warm else result.x))

        candidates.sort(key=lambda candidate: candidate[0].tobytes())
        cut, cold = _skip_cut(best), []
        for pattern, objective, lower, b, x in candidates:
            if objective > cut:
                continue
            if x is None:
                stats["resolved"] += 1
                result = lp(b)
                if result.status == "unbounded":
                    return None
                if result.status != "optimal":
                    continue
                x = result.x
            x = x + lower
            cold.append((pattern, float(self.c_cont @ x + self.c_bin @ pattern), x))
        cut = _tie_cut(min((objective for _, objective, _ in cold), default=np.inf))
        return [tie for tie in cold if tie[1] <= cut]


def _plan(codes, n, shortest):
    """The prefix tree of ascending ``codes`` of ``n`` bits, a row per
    prefix length from ``shortest`` to ``n``: where each distinct prefix
    ``starts`` among the codes and the ``rank`` of each code's prefix, and,
    from the second row on, where each code's prefix lies ``into`` the two
    extensions of every prefix one bit shorter."""
    prefixes = codes >> np.arange(n - shortest, -1, -1)[:, None]
    starts = np.ones(prefixes.shape, dtype=bool)
    np.not_equal(prefixes[:, 1:], prefixes[:, :-1], out=starts[:, 1:])
    # a rank counts no more than a block's codes; cumsum is quicker to int32
    rank = np.cumsum(starts, axis=1, dtype=np.int32) - 1
    return starts, rank, 2 * rank[:-1] + (prefixes[1:] & 1).astype(np.int32)


def _by_depth(depth, n):
    """Each depth below ``n`` that some items have, with those items."""
    order = np.argsort(depth, kind="stable")
    ends = np.searchsorted(depth[order], np.arange(n + 1))
    return [(d, order[ends[d]:ends[d + 1]]) for d in range(n) if ends[d] < ends[d + 1]]


def _fit_check(rows):
    """Whether each prefix's ``rows`` of sums are at most PATTERN_TOL."""
    return lambda sums: (sums[:, rows] <= PATTERN_TOL).all(axis=1)


def _cross_check(lo, up, inv):
    """Whether no pair of single-variable rows ``(lo, up)`` of a prefix's
    sums crosses: ``max(0, lo)`` above ``up`` by more than PATTERN_TOL."""
    inv_lo, inv_up = inv[lo], inv[up]

    def check(sums):
        lower = np.maximum(sums[:, lo] * inv_lo, 0.0)
        return ~(lower > sums[:, up] * inv_up + PATTERN_TOL).any(axis=1)
    return check


def _runs(var, mask):
    """The rows in ``mask`` ordered by ``var``, stably, with the distinct
    vars and where each one's run of rows starts."""
    rows = np.flatnonzero(mask)
    rows = rows[np.argsort(var[rows], kind="stable")]
    values, starts = np.unique(var[rows], return_index=True)
    return rows, values, starts


def _tie_cut(best: float) -> float:
    return best + TIE_REL_TOL * (1.0 + abs(best))


def _skip_cut(best: float) -> float:
    """Above this no rounding of a dual bound or of a warm optimum can hide
    an optimum that joins the ties."""
    return _tie_cut(best) + DUAL_SKIP_REL * (1.0 + abs(best))


def solve_exact(model: MilpModel, config: SolverConfig | None = None) -> Solution:
    """Enumerate commitment patterns and solve each LP with the bundled
    simplex, skipping those that a pooled dual bound rules out.

    Of the patterns within TIE_REL_TOL of the best optimum, the
    lexicographically smallest wins, with its own cold objective and values.
    ``Solution.stats`` counts the patterns, how many were ruled out by their
    bounds or a dual bound, the LPs solved, how many of them started warm,
    how many were solved cold because a warm answer failed its check, the
    cold re-solves of the tie candidates and the pivots of all of them.
    Raises :class:`TooManyBinaries` when the model exceeds the enumeration
    budget and :class:`NumericalFailure` if the simplex cycling guard trips
    on an LP that is solved or the arithmetic overflows.
    """
    config = config or SolverConfig()
    started = time.perf_counter()
    engine = _ExactEngine(model, config)
    ties = engine.optimal()
    elapsed = time.perf_counter() - started
    stats = engine.stats
    logger.debug("exact solve: %s",
                 ", ".join(f"{key} {value}" for key, value in stats.items()))
    if ties is None:
        return Solution(np.empty(0), -np.inf, "unbounded", "builtin-exact", elapsed, stats)
    if not ties:
        return Solution(np.empty(0), np.inf, "infeasible", "builtin-exact", elapsed, stats)
    pattern, objective, x = ties[0]
    values = np.empty(model.num_columns)
    values[engine.bin_cols], values[engine.cont_cols] = pattern, x
    return Solution(values, objective, "optimal", "builtin-exact", elapsed, stats)


def enumerate_optimal_patterns(model: MilpModel, config: SolverConfig | None = None
                               ) -> list[tuple[int, ...]]:
    """All commitment patterns whose optimum lies within TIE_REL_TOL of the
    best, in lexicographic order; none if the model is unbounded."""
    ties = _ExactEngine(model, config or SolverConfig()).optimal() or []
    return [tuple(int(b) for b in pattern) for pattern, _, _ in ties]


# ---------------------------------------------------------------------------
# solution checking and parsing


def check_solution(model: MilpModel, values: np.ndarray,
                   tolerance: float = RESIDUAL_TOL) -> ResidualReport:
    """Exact residuals of a candidate solution, one value per column,
    grouped by constraint family; raises ValueError on any other shape.
    A value that is not finite is an infinite bound violation, also in a
    column that no row reads.  A row whose activity overflows has an
    infinite or NaN residual, which fails the check too."""
    if np.shape(values) != (model.num_columns,):
        raise ValueError(f"expected {model.num_columns} column values, "
                         f"got an array of shape {np.shape(values)}")
    x = np.asarray(values, dtype=float)
    rows = model.rows
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not np.isfinite(x).all():
        bound_violation = np.inf
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
    value cannot be read, or names a column that an earlier line gave.
    """
    known = model.columns.by_name
    values = np.zeros(model.num_columns)
    given_on = np.zeros(model.num_columns, dtype=np.int64)   # line number, 0 if none
    lines = text.splitlines()
    unknown, unrecognized = [], []

    def read_value(name: str, raw: str, line: str):
        try:
            value = float(raw)
        except ValueError:
            raise UnparsableSolution(
                f"cannot parse value {raw!r} for column {name!r} in line {line!r}"
            ) from None
        col = known[name]
        if given_on[col]:
            first = given_on[col]
            raise UnparsableSolution(
                f"column {name!r} is given twice: in line {first} "
                f"{lines[first - 1].strip()!r} and in line {number} {line!r}")
        values[col] = value
        given_on[col] = number

    for number, raw_line in enumerate(lines, start=1):
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
               [model.columns.names[col] for col in np.flatnonzero(given_on == 0)])
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
    return _checked(model, parse_solution_file(text, model))


def _checked(model: MilpModel, values: np.ndarray) -> tuple[np.ndarray, float]:
    report = check_solution(model, values)
    if not report.passed:
        raise ResidualCheckFailed(
            f"solution violates the model: max residual {report.max_residual:g}, "
            f"integrality gap {report.integrality_gap:g}, "
            f"bound violation {report.bound_violation:g}")
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
    The returned values are checked as by :func:`accept_solution`.
    ``Solution.stats`` holds the seconds taken to write the MPS file
    (``emit_s``), by the solver process from spawn to exit (``solver_s``),
    to read the solution (``parse_s``) and to check it (``check_s``), and the
    process's ``returncode``.  Raises :class:`IoFailure` if the temporary
    directory or the model file cannot be written.
    """
    if not config.command_template:
        raise SolverLaunchFailed("no solver command template configured")

    started = time.perf_counter()
    try:
        workspace = tempfile.TemporaryDirectory(prefix="ucdispatch-")
    except OSError as exc:
        raise IoFailure(f"cannot create a temporary directory: {exc}") from exc
    with workspace as tmp:
        model_path = Path(tmp) / "model.mps"
        solution_path = Path(tmp) / "model.sol"
        try:
            write_file(model_path, write_mps(model))
        except OSError as exc:
            raise IoFailure(f"cannot write {model_path}: {exc}") from exc
        emitted = time.perf_counter()

        command = [
            part.replace("{model}", str(model_path))
                .replace("{solution}", str(solution_path))
            for part in shlex.split(config.command_template)
        ]
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise SolverLaunchFailed(f"cannot launch {command[0]!r}: {exc}") from exc
        solved = time.perf_counter()
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
        values = parse_solution_file(text, model)
        parsed = time.perf_counter()
        values, objective = _checked(model, values)
        checked = time.perf_counter()
    return Solution(values, objective, "optimal", "external", checked - started, {
        "emit_s": emitted - started, "solver_s": solved - emitted, "parse_s": parsed - solved,
        "check_s": checked - parsed, "returncode": proc.returncode})


def solve(model: MilpModel, config: SolverConfig | None = None) -> Solution:
    """Dispatch to the configured backend."""
    config = config or SolverConfig()
    if config.backend == "external":
        return solve_external(model, config)
    return solve_exact(model, config)
