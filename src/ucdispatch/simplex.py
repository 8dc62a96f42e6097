"""Dense simplex for the exact reference solver.

Solves  min c.x  s.t.  A x (<=,=,>=) b,  x >= 0.  From scratch ("cold") it
runs a two-phase primal simplex with Bland's rule, which guarantees
termination at the price of speed; a hard iteration cap acts as a cycling
guard on top.  Given the optimal result of an LP with the same ``c``, ``A``
and senses, it starts ("warm") from that result's basis, which a new ``b``
leaves dual feasible, and runs a dual simplex with Bland's rules; it falls
back to the cold path whenever that basis cannot be used.  The warm start
takes B^-1 from the final tableau that the optimal result carries, so it
needs no factorization (the inverse is kept from one dual reoptimization
to the next); an answer it reaches that fails its check against the
original rows is thrown away, and the LP is solved cold.  Both paths share
one NumPy pivot.  The exact solver's lexicographic tie rule relies on the
cold path's pivot choices, so keep its entering rule, its ratio test and
the floating-point order of the elimination as they are.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

MAX_ITERATIONS = 100_000
#: pivot tolerance: reduced costs, ratio-test entries and drive-out entries
#: within it of zero count as zero
TOL = 1e-9
#: a warm answer's check lets each side of a row, reduced cost or duality
#: gap miss by this times one plus its magnitude: rounding, not a wrong basis
CHECK_REL_TOL = 1e-9
#: phase 1 calls an LP infeasible above this times one plus the largest |b|:
#: its optimum sums every artificial after many pivots, so it rounds more
PHASE1_REL_TOL = 1e-7


def kernel_name() -> str:
    """Name of the pivot kernel, recorded with benchmark results."""
    return "python"


@dataclass
class LpResult:
    status: str               # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float
    iterations: int
    #: optimal duals, one per input row in its order and sense: <= 0 on
    #: "<=" rows, >= 0 on ">=" rows, with c - A'dual >= -TOL; for a warm
    #: "infeasible", the ray y that proves it: y'A >= 0 > y'b, with y >= 0 on
    #: "<=" rows and <= 0 on ">=" rows; None otherwise
    dual: np.ndarray | None = None
    #: the final basic column of each row and the rows flipped (a cold solve
    #: flips those with a negative right-hand side, a warm one keeps the
    #: flips of its start): the start of a warm solve; None unless optimal,
    #: and ``basis`` also None when rows were dropped as redundant
    basis: np.ndarray | None = None
    flipped: np.ndarray | None = None
    #: whether the answer was reached from the basis of ``start``
    warm: bool = False
    #: whether a warm answer failed its check against the original rows, so
    #: that the LP was solved cold
    rejected: bool = False
    #: the final tableau, its identity column of each row and its first
    #: artificial column: a warm start reads B^-1 from them; set with
    #: ``basis``
    tableau: np.ndarray | None = field(default=None, repr=False)
    identity: np.ndarray | None = field(default=None, repr=False)
    art_start: int | None = field(default=None, repr=False)


@contextmanager
def numerical_guard(where: str):
    """Raise :class:`NumericalFailure` where the arithmetic inside overflows
    or makes a NaN, instead of letting NumPy warn and carry on with it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailure(f"{where} arithmetic failed: {exc}") from None


def _pivot(tableau, basis, row, col):
    """Make column ``col`` basic in ``row``, eliminating it from every other
    row.  Rows with a zero in ``col`` are left alone: subtracting zero from
    them could change only the sign of a zero entry."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    rows = tableau[:, col].nonzero()[0]
    rows = rows[rows != row]
    tableau[rows] -= tableau[rows, col][:, None] * pivot_row
    basis[row] = col


def _pivot_loop(tableau, basis, art_start):
    """Run simplex pivots in place until optimal, unbounded or the cap.

    ``tableau`` is (m+1) x (ncols+1): m constraint rows plus the reduced-cost
    row, last column holds the right-hand sides and minus the objective.
    Entering column: the first one before ``art_start`` with reduced cost
    below -TOL; artificials, the columns from ``art_start`` on, may leave the
    basis but never enter it.
    Leaving row: the minimal ratio, ties broken by the smallest basic column.
    Returns (status, iterations), status "optimal", "unbounded" or "limit".
    """
    m = tableau.shape[0] - 1
    cost = tableau[m]
    iters = 0
    while iters < MAX_ITERATIONS:
        entering = (cost[:art_start] < -TOL).nonzero()[0]
        if entering.size == 0:
            return "optimal", iters
        col = int(entering[0])

        column = tableau[:m, col]
        candidates = (column > TOL).nonzero()[0]
        if candidates.size == 0:
            return "unbounded", iters
        ratios = tableau[candidates, -1] / column[candidates]
        best = ratios.min()
        ties = candidates[ratios == best]
        if ties.size == 0:  # a NaN ratio, from an overflow in the tableau
            raise NumericalFailure("simplex ratio test met a NaN")
        row = int(ties[np.argmin(basis[ties])]) if ties.size > 1 else int(ties[0])

        _pivot(tableau, basis, row, col)
        iters += 1
    return "limit", iters


def _start_tableau(A, b, le, ge, flipped):
    """The tableau of rows normalized by ``flipped`` (a flipped row is
    negated and swaps <= and >=), with each row's identity column and the
    first artificial column.  Its columns are x, a slack per <= row, a
    surplus per >= row and an artificial per >= or = row, in row order, then
    the right-hand side; its last row, the reduced costs, is zero."""
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    A[flipped] = -A[flipped]
    b[flipped] = -b[flipped]
    le, ge = np.where(flipped, ge, le), np.where(flipped, le, ge)

    slack_rows = le.nonzero()[0]
    surplus_rows = ge.nonzero()[0]
    art_rows = (~le).nonzero()[0]

    n_slack = slack_rows.size
    n_surplus = surplus_rows.size
    art_start = n + n_slack + n_surplus
    total = art_start + art_rows.size

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    identity = np.empty(m, dtype=np.int64)
    identity[slack_rows] = n + np.arange(n_slack)
    identity[art_rows] = art_start + np.arange(art_rows.size)
    tableau[np.arange(m), identity] = 1.0
    tableau[surplus_rows, n + n_slack + np.arange(n_surplus)] = -1.0
    return tableau, identity, art_start


def _optimum(c, tableau, basis, identity, flipped):
    """``x``, ``c.x`` and the row duals of an optimal tableau, with no
    negative zero in ``x`` or the duals."""
    m, n = len(basis), len(c)
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:m, -1][structural]
    objective = float(c @ x)
    if not (np.isfinite(objective) and np.isfinite(x).all()):
        raise NumericalFailure("simplex ended at a non-finite point")
    dual = -tableau[m, identity]
    dual[flipped] = -dual[flipped]
    return x + 0.0, objective, dual + 0.0


def _holds(c, A, b, le, ge, result):
    """Whether a warm answer holds on the original rows, each side within
    CHECK_REL_TOL times one plus its own magnitude.  An optimum is certified
    by its point ``x`` and its duals ``y``: ``x`` meets each row of ``A x
    (senses) b``, ``c - A'y >= 0`` and ``c.x = b.y`` (the signs of ``y`` are
    those of the final reduced costs).  An infeasible verdict is certified
    by its ray ``y``: ``y'A >= 0 > y'b``."""
    y = result.dual
    if result.x is None:
        return bool(np.all(y @ A >= -CHECK_REL_TOL * (1.0 + np.abs(y) @ np.abs(A)))
                    and y @ b < -CHECK_REL_TOL * (1.0 + np.abs(y) @ np.abs(b)))
    gap = A @ result.x - b
    residual = np.where(le, gap, np.where(ge, -gap, np.abs(gap)))
    return bool(np.all(residual <= CHECK_REL_TOL * (1.0 + np.abs(b)))
                and np.all(c - y @ A >= -CHECK_REL_TOL * (1.0 + np.abs(c)))
                and abs(result.objective - b @ y)
                <= CHECK_REL_TOL * (1.0 + abs(result.objective)))


def _dual_simplex(c, b, start):
    """Solve for ``b`` from the basis, the row flips and the final tableau
    of ``start`` with a dual simplex.

    The right-hand sides become B^-1 times ``b`` with the start's flips,
    B^-1 being ``start.tableau[:m, start.identity]``, and the reduced costs
    are priced out again from ``c``.  Pivots with Bland's rules: the leaving
    row is the primal-infeasible one with the smallest basic column, the
    entering column the minimal ratio, the smallest column on ties.  Returns
    (result, pivots); result is None where the cold path must take over: a
    reduced cost below -TOL at the start or the end, or the pivot cap.
    """
    m = len(start.basis)
    flipped, identity, art_start = start.flipped, start.identity, start.art_start
    basis = start.basis.copy()
    tableau = start.tableau.copy()
    tableau[:m, -1] = tableau[:m, identity] @ np.where(flipped, -b, b)
    costs = np.zeros(tableau.shape[1])
    costs[:len(c)] = c
    tableau[m] = costs - costs[basis] @ tableau[:m]
    tableau[m, basis] = 0.0
    cost = tableau[m, :art_start]  # artificials never enter
    if np.any(cost < -TOL):
        return None, 0

    rhs = tableau[:m, -1]
    iters = 0
    while True:
        leaving = (rhs < -TOL).nonzero()[0]
        if leaving.size == 0:
            break
        if iters >= MAX_ITERATIONS:
            return None, iters
        row = int(leaving[np.argmin(basis[leaving])])
        alpha = tableau[row, :art_start]
        candidates = (alpha < -TOL).nonzero()[0]
        if candidates.size == 0:
            ray = tableau[row, identity]
            return LpResult("infeasible", None, np.inf, iters,
                            np.where(flipped, -ray, ray) + 0.0, warm=True), iters
        ratios = cost[candidates] / -alpha[candidates]
        ties = candidates[ratios == ratios.min()]
        if ties.size == 0:  # a NaN ratio, from an overflow in the tableau
            raise NumericalFailure("dual simplex ratio test met a NaN")
        _pivot(tableau, basis, row, int(ties[0]))
        iters += 1

    if np.any(cost < -TOL):
        return None, iters
    x, objective, dual = _optimum(c, tableau, basis, identity, flipped)
    return LpResult("optimal", x, objective, iters, dual, basis, flipped, warm=True,
                    tableau=tableau, identity=identity, art_start=art_start), iters


def _two_phase(c, A, b, le, ge):
    """Solve from scratch with the two-phase primal simplex."""
    m, n = len(b), len(c)
    iterations = 0

    # normalize to nonnegative right-hand sides
    flipped = b < 0.0
    tableau, identity, art_start = _start_tableau(A, b, le, ge, flipped)
    art_rows = (identity >= art_start).nonzero()[0]
    basis = identity.copy()

    redundant = []
    if art_rows.size:
        # phase 1: minimize the sum of artificial variables
        tableau[m, :] = 0.0
        for i in art_rows:
            tableau[m, :] -= tableau[i, :]
        tableau[m, art_start:-1] = 0.0

        status, iters = _pivot_loop(tableau, basis, art_start)
        iterations += iters
        if status == "limit":
            raise NumericalFailure(f"simplex phase 1 exceeded {MAX_ITERATIONS} pivots")
        infeasibility = -tableau[m, -1]
        if infeasibility > PHASE1_REL_TOL * (1.0 + float(np.max(np.abs(b)))):
            return LpResult("infeasible", None, np.inf, iterations)

        # drive leftover artificials out of the basis; drop redundant rows
        for i in range(m):
            if basis[i] < art_start:
                continue
            nonzero = (np.abs(tableau[i, :art_start]) > TOL).nonzero()[0]
            if nonzero.size == 0:
                redundant.append(i)
            else:
                _pivot(tableau, basis, i, int(nonzero[0]))
        if redundant:
            keep = [i for i in range(m) if i not in redundant]
            tableau = np.ascontiguousarray(tableau[keep + [m]])
            basis = basis[keep].copy()
            m = len(keep)

    # phase 2: the real objective, priced out over the current basis
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            tableau[m, :] -= c[basis[i]] * tableau[i, :]

    status, iters = _pivot_loop(tableau, basis, art_start)
    iterations += iters
    if status == "limit":
        raise NumericalFailure(f"simplex phase 2 exceeded {MAX_ITERATIONS} pivots")
    if status == "unbounded":
        return LpResult("unbounded", None, -np.inf, iterations)

    x, objective, dual = _optimum(c, tableau, basis, identity, flipped)
    dual[redundant] = 0.0
    if redundant:
        return LpResult("optimal", x, objective, iterations, dual, None, flipped)
    return LpResult("optimal", x, objective, iterations, dual, basis, flipped,
                    tableau=tableau, identity=identity, art_start=art_start)


@numerical_guard("simplex")
def solve_dense_lp(c, A, senses, b, start: LpResult | None = None) -> LpResult:
    """Solve min c.x s.t. A x (senses) b, x >= 0.

    ``senses`` is a sequence of "<=", "=" or ">=" per row.  ``start`` is an
    optimal result of an LP with the same ``c``, ``A`` and senses: the solve
    then starts warm from its basis and row flips, with B^-1 taken from the
    final tableau that ``start`` carries and the reduced costs priced out
    from ``c``.  Each answer reached so is checked against ``c``, ``A`` and
    ``b``: an optimum by its point and its duals, an infeasible verdict by
    its ray (see ``_holds``).  One that fails is thrown away and the LP is
    solved cold; ``rejected`` says so.  The solve also runs cold when there
    is no ``start``, when that solve dropped redundant rows or when the warm
    path gives up.  An optimal result carries the row duals in ``dual``:
    minus the final reduced cost of each row's identity column (its slack or
    its artificial), negated back on flipped rows, 0 on rows dropped as
    redundant; neither ``x`` nor ``dual`` holds a negative zero.  ``iterations``
    counts the pivots of both paths.  Raises :class:`NumericalFailure` if a
    cold phase reaches MAX_ITERATIONS pivots, the arithmetic overflows, or a
    NaN ratio or a non-finite optimum turns up.  An LP without rows takes
    the same path: its tableau is the reduced-cost row alone, so it is
    optimal at x = 0 with no pivot, or unbounded where a cost is below -TOL.
    """
    c = np.asarray(c, dtype=float)
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float)
    senses = np.asarray(senses, dtype=str)
    le, eq, ge = (senses == sense for sense in ("<=", "=", ">="))
    known = le | eq | ge
    if not known.all():
        raise ValueError(f"unknown row sense {str(senses[~known][0])!r}")

    iterations, rejected = 0, False
    if start is not None and start.basis is not None:
        result, iterations = _dual_simplex(c, b, start)
        if result is not None and _holds(c, A, b, le, ge, result):
            return result
        rejected = result is not None
    result = _two_phase(c, A, b, le, ge)
    result.iterations += iterations
    result.rejected = rejected
    return result

