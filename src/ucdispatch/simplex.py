"""Dense simplex for the exact reference solver.

Solves  min c.x  s.t.  A x (<=,=,>=) b,  x >= 0.  From scratch ("cold") it
runs a two-phase primal simplex with Bland's rule, which guarantees
termination at the price of speed; a hard iteration cap acts as a cycling
guard on top.  Given the optimal result of an LP with the same ``c``, ``A``
and senses, it starts ("warm") from that result's basis, which a new ``b``
leaves dual feasible, and runs a dual simplex with Bland's rules; it falls
back to the cold path whenever that basis cannot be used.  Both share one
NumPy pivot.  The exact solver's lexicographic tie rule relies on the cold
path's pivot choices, so keep its entering rule, its ratio test and the
floating-point order of the elimination as they are.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

MAX_ITERATIONS = 100_000
#: pivot tolerance: reduced costs, ratio-test entries and drive-out entries
#: within it of zero count as zero
TOL = 1e-9


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
    #: "<=" rows, >= 0 on ">=" rows, with c - A'dual >= -TOL; None unless optimal
    dual: np.ndarray | None = None
    #: the final basic column of each row and the rows flipped (a cold solve
    #: flips those with a negative right-hand side, a warm one keeps the
    #: flips of its start): the start of a warm solve; None unless optimal,
    #: and ``basis`` also None when rows were dropped as redundant
    basis: np.ndarray | None = None
    flipped: np.ndarray | None = None
    #: whether the solve started from the basis of ``start``
    warm: bool = False


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
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= np.outer(tableau[rows, col], pivot_row)
    basis[row] = col


def _pivot_loop(tableau, basis, allowed):
    """Run simplex pivots in place until optimal, unbounded or the cap.

    ``tableau`` is (m+1) x (ncols+1): m constraint rows plus the reduced-cost
    row, last column holds the right-hand sides and minus the objective.
    Entering column: the first allowed one with reduced cost below -TOL.
    Leaving row: the minimal ratio, ties broken by the smallest basic column.
    Returns (status, iterations), status "optimal", "unbounded" or "limit".
    """
    m = tableau.shape[0] - 1
    cost = tableau[m]
    iters = 0
    while iters < MAX_ITERATIONS:
        entering = np.flatnonzero(allowed & (cost[:-1] < -TOL))
        if entering.size == 0:
            return "optimal", iters
        col = int(entering[0])

        column = tableau[:m, col]
        candidates = np.flatnonzero(column > TOL)
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

    slack_rows = np.flatnonzero(le)
    surplus_rows = np.flatnonzero(ge)
    art_rows = np.flatnonzero(~le)

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


def _dual_simplex(c, A, b, le, ge, start):
    """Solve from the basis and row flips of ``start`` with a dual simplex.

    Refactors the basis from the original rows, prices out the costs and
    pivots with Bland's rules: the leaving row is the primal-infeasible one
    with the smallest basic column, the entering column the minimal ratio,
    the smallest column on ties.  Returns (result, pivots); result is None
    where the cold path must take over: a singular basis, a reduced cost
    below -TOL at the start or the end, or the pivot cap.
    """
    m, n = A.shape
    flipped = start.flipped
    tableau, identity, art_start = _start_tableau(A, b, le, ge, flipped)
    basis = start.basis.copy()
    try:
        tableau[:m] = np.linalg.solve(tableau[:m, basis], tableau[:m])
    except np.linalg.LinAlgError:
        return None, 0
    if not np.isfinite(tableau[:m]).all():
        return None, 0
    tableau[:m, basis] = np.eye(m)
    costs = np.zeros(tableau.shape[1])
    costs[:n] = c
    tableau[m] = costs - costs[basis] @ tableau[:m]
    tableau[m, basis] = 0.0
    cost = tableau[m, :art_start]  # artificials never enter
    if np.any(cost < -TOL):
        return None, 0

    rhs = tableau[:m, -1]
    iters = 0
    while True:
        leaving = np.flatnonzero(rhs < -TOL)
        if leaving.size == 0:
            break
        if iters >= MAX_ITERATIONS:
            return None, iters
        row = int(leaving[np.argmin(basis[leaving])])
        alpha = tableau[row, :art_start]
        candidates = np.flatnonzero(alpha < -TOL)
        if candidates.size == 0:
            return LpResult("infeasible", None, np.inf, iters, warm=True), iters
        ratios = cost[candidates] / -alpha[candidates]
        ties = candidates[ratios == ratios.min()]
        if ties.size == 0:  # a NaN ratio, from an overflow in the tableau
            raise NumericalFailure("dual simplex ratio test met a NaN")
        _pivot(tableau, basis, row, int(ties[0]))
        iters += 1

    if np.any(cost < -TOL):
        return None, iters
    x, objective, dual = _optimum(c, tableau, basis, identity, flipped)
    return LpResult("optimal", x, objective, iters, dual, basis, flipped, warm=True), iters


@numerical_guard("simplex")
def solve_dense_lp(c, A, senses, b, start: LpResult | None = None) -> LpResult:
    """Solve min c.x s.t. A x (senses) b, x >= 0.

    ``senses`` is a sequence of "<=", "=" or ">=" per row.  ``start`` is an
    optimal result of an LP with the same ``c``, ``A`` and senses: the solve
    then starts warm from its basis and row flips, and runs cold when there
    is no ``start``, when that solve dropped redundant rows or when the warm
    path gives up.  An optimal result carries the row duals in ``dual``:
    minus the final reduced cost of each row's identity column (its slack or
    its artificial), negated back on flipped rows, 0 on rows dropped as
    redundant; neither ``x`` nor ``dual`` holds a negative zero.  ``iterations``
    counts the pivots of both paths.  Raises :class:`NumericalFailure` if a
    cold phase reaches MAX_ITERATIONS pivots, the arithmetic overflows, or a
    NaN ratio or a non-finite optimum turns up.
    """
    c = np.asarray(c, dtype=float)
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float)
    n = c.shape[0]
    m = b.shape[0]
    if m == 0:
        if np.any(c < -TOL):
            return LpResult("unbounded", None, -np.inf, 0)
        return LpResult("optimal", np.zeros(n), 0.0, 0, np.zeros(0),
                        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))

    senses = np.asarray(senses)
    le, eq, ge = (senses == sense for sense in ("<=", "=", ">="))
    known = le | eq | ge
    if not known.all():
        raise ValueError(f"unknown row sense {str(senses[~known][0])!r}")

    iterations = 0
    if start is not None and start.basis is not None:
        result, iterations = _dual_simplex(c, A, b, le, ge, start)
        if result is not None:
            return result

    # normalize to nonnegative right-hand sides
    flipped = b < 0.0
    tableau, identity, art_start = _start_tableau(A, b, le, ge, flipped)
    total = tableau.shape[1] - 1
    art_rows = np.flatnonzero(identity >= art_start)
    basis = identity.copy()

    allowed = np.ones(total, dtype=bool)
    allowed[art_start:] = False  # artificials may leave but never re-enter

    redundant = []
    if art_rows.size:
        # phase 1: minimize the sum of artificial variables
        tableau[m, :] = 0.0
        for i in art_rows:
            tableau[m, :] -= tableau[i, :]
        tableau[m, art_start:total] = 0.0

        status, iters = _pivot_loop(tableau, basis, allowed)
        iterations += iters
        if status == "limit":
            raise NumericalFailure(f"simplex phase 1 exceeded {MAX_ITERATIONS} pivots")
        infeasibility = -tableau[m, -1]
        if infeasibility > 1e-7 * (1.0 + float(np.max(np.abs(b)))):
            return LpResult("infeasible", None, np.inf, iterations)

        # drive leftover artificials out of the basis; drop redundant rows
        for i in range(m):
            if basis[i] < art_start:
                continue
            nonzero = np.flatnonzero(np.abs(tableau[i, :art_start]) > TOL)
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

    status, iters = _pivot_loop(tableau, basis, allowed)
    iterations += iters
    if status == "limit":
        raise NumericalFailure(f"simplex phase 2 exceeded {MAX_ITERATIONS} pivots")
    if status == "unbounded":
        return LpResult("unbounded", None, -np.inf, iterations)

    x, objective, dual = _optimum(c, tableau, basis, identity, flipped)
    dual[redundant] = 0.0
    return LpResult("optimal", x, objective, iterations, dual,
                    None if redundant else basis, flipped)
