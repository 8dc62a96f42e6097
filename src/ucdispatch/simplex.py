"""Dense two-phase primal simplex for the exact reference solver.

Solves  min c.x  s.t.  A x (<=,=,>=) b,  x >= 0  with Bland's rule, which
guarantees termination at the price of speed; a hard iteration cap acts as a
cycling guard on top.  The pivot loop is plain NumPy.  The exact solver's
lexicographic tie rule relies on its pivot choices, so keep the entering rule,
the ratio test and the floating-point order of the elimination as they are.
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
    """Make column ``col`` basic in ``row``, eliminating it from every other row."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, pivot_row)
    basis[row] = col


def _pivot_loop(tableau, basis, allowed, max_iter):
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
    while iters < max_iter:
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


@numerical_guard("simplex")
def solve_dense_lp(c, A, senses, b, *, max_iter: int = MAX_ITERATIONS) -> LpResult:
    """Solve min c.x s.t. A x (senses) b, x >= 0.

    ``senses`` is a sequence of "<=", "=" or ">=" per row.  Raises
    :class:`NumericalFailure` if the pivot cap is hit, the arithmetic
    overflows, or a NaN ratio or a non-finite optimum turns up.
    """
    c = np.asarray(c, dtype=float)
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float)
    n = c.shape[0]
    m = b.shape[0]
    if m == 0:
        if np.any(c < -TOL):
            return LpResult("unbounded", None, -np.inf, 0)
        return LpResult("optimal", np.zeros(n), 0.0, 0)

    senses = list(senses)
    A = A.copy()
    # normalize to nonnegative right-hand sides
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    for i in range(m):
        if b[i] < 0.0:
            A[i] = -A[i]
            b[i] = -b[i]
            senses[i] = flip[senses[i]]

    slack_rows = [i for i, s in enumerate(senses) if s == "<="]
    surplus_rows = [i for i, s in enumerate(senses) if s == ">="]
    art_rows = [i for i, s in enumerate(senses) if s in ("=", ">=")]

    n_slack = len(slack_rows)
    n_surplus = len(surplus_rows)
    n_art = len(art_rows)
    art_start = n + n_slack + n_surplus
    total = art_start + n_art

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    basis = np.full(m, -1, dtype=np.int64)

    for offset, i in enumerate(slack_rows):
        tableau[i, n + offset] = 1.0
        basis[i] = n + offset
    for offset, i in enumerate(surplus_rows):
        tableau[i, n + n_slack + offset] = -1.0
    for offset, i in enumerate(art_rows):
        tableau[i, art_start + offset] = 1.0
        basis[i] = art_start + offset

    allowed = np.ones(total, dtype=bool)
    allowed[art_start:] = False  # artificials may leave but never re-enter

    iterations = 0
    if n_art:
        # phase 1: minimize the sum of artificial variables
        tableau[m, :] = 0.0
        for i in art_rows:
            tableau[m, :] -= tableau[i, :]
        tableau[m, art_start:total] = 0.0

        status, iters = _pivot_loop(tableau, basis, allowed, max_iter)
        iterations += iters
        if status == "limit":
            raise NumericalFailure(f"simplex phase 1 exceeded {max_iter} pivots")
        infeasibility = -tableau[m, -1]
        if infeasibility > 1e-7 * (1.0 + float(np.max(b))):
            return LpResult("infeasible", None, np.inf, iterations)

        # drive leftover artificials out of the basis; drop redundant rows
        redundant = set()
        for i in range(m):
            if basis[i] < art_start:
                continue
            nonzero = np.flatnonzero(np.abs(tableau[i, :art_start]) > TOL)
            if nonzero.size == 0:
                redundant.add(i)
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

    status, iters = _pivot_loop(tableau, basis, allowed, max_iter)
    iterations += iters
    if status == "limit":
        raise NumericalFailure(f"simplex phase 2 exceeded {max_iter} pivots")
    if status == "unbounded":
        return LpResult("unbounded", None, -np.inf, iterations)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    objective = float(c @ x)
    if not (np.isfinite(objective) and np.isfinite(x).all()):
        raise NumericalFailure("simplex ended at a non-finite point")
    return LpResult("optimal", x, objective, iterations)
