"""The bundled dense simplex against scipy and its pinned pivot trajectories."""

import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog

from ucdispatch.errors import NumericalFailure
from ucdispatch.simplex import kernel_name, solve_dense_lp


def test_kernel_name_is_python():
    # benchmark fingerprints record this name
    assert kernel_name() == "python"


def test_simple_optimum():
    result = solve_dense_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]],
                            ["<=", "<="], [4.0, 3.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-8.0)
    assert result.x == pytest.approx([0.0, 4.0])


def test_infeasible():
    result = solve_dense_lp([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
    assert result.status == "infeasible"


def test_unbounded():
    result = solve_dense_lp([-1.0], [[1.0]], [">="], [1.0])
    assert result.status == "unbounded"


def test_equality_rows():
    result = solve_dense_lp([1.0, 0.0], [[1.0, 1.0]], ["="], [2.0])
    assert result.status == "optimal"
    assert result.x == pytest.approx([0.0, 2.0])


def test_negative_rhs_normalization():
    # -x <= -1 means x >= 1
    result = solve_dense_lp([1.0], [[-1.0]], ["<="], [-1.0])
    assert result.status == "optimal"
    assert result.x == pytest.approx([1.0])


def test_degenerate_lp_terminates():
    # multiple rows active at the optimum; Bland must not cycle
    A = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    result = solve_dense_lp([-1.0, -1.0], A, ["<="] * 4, [1.0, 1.0, 1.0, 1.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-1.0)


def test_no_rows():
    result = solve_dense_lp([1.0, 2.0], np.zeros((0, 2)), [], [])
    assert result.status == "optimal"
    assert result.x == pytest.approx([0.0, 0.0])
    assert solve_dense_lp([-1.0], np.zeros((0, 1)), [], []).status == "unbounded"


def test_iteration_cap_raises():
    with pytest.raises(NumericalFailure):
        solve_dense_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]],
                       ["<=", "<="], [4.0, 3.0], max_iter=1)


def _random_lp(rng):
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 10))
    A = rng.normal(size=(m, n)) * rng.uniform(0.5, 5.0)
    # mostly-positive costs keep min c.x over x >= 0 bounded most of the time
    c = rng.uniform(0.1, 10.0, size=n)
    c[rng.random(n) < 0.2] *= -1.0
    senses, b = [], np.empty(m)
    for i in range(m):
        senses.append(str(rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])))
        b[i] = rng.uniform(0.0, 30.0) if senses[-1] == "<=" else rng.uniform(-5.0, 15.0)
    return c, A, senses, b


def _integer_lp(rng):
    # small integer data: degenerate vertices, ratio ties, artificials left
    # basic at zero after phase 1 and the odd redundant equality row
    m = int(rng.integers(1, 10))
    n = int(rng.integers(1, 9))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    c = rng.integers(-1, 4, size=n).astype(float)
    senses = [str(s) for s in rng.choice(["<=", ">=", "="], size=m, p=[0.4, 0.3, 0.3])]
    b = rng.integers(0, 4, size=m).astype(float)
    return c, A, senses, b


#: SHA-256 over (status, pivots, x bytes) of 400 seeded draws; any change to
#: the pivot rule or the floating-point order of the elimination shows up here
GOLDEN_TRAJECTORIES = {
    "random": "c2328df8dd57c3d0513c4de1c05b485542dc569fd4c306158f17e2783275e218",
    "integer": "68319f5552c8e7e94e01c6183539aba4dc162b9153d10139c1ff9d2f6ac7e94a",
}
DRAWS = {"random": _random_lp, "integer": _integer_lp}


def trajectory_digest(draw, count=400):
    rng = np.random.default_rng(42)
    digest = hashlib.sha256()
    for _ in range(count):
        result = solve_dense_lp(*draw(rng))
        digest.update(f"{result.status} {result.iterations};".encode())
        if result.x is not None:
            digest.update(result.x.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN_TRAJECTORIES))
def test_golden_pivot_trajectories(label):
    assert trajectory_digest(DRAWS[label]) == GOLDEN_TRAJECTORIES[label]


def test_agreement_with_scipy_on_random_lps():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(120):
        c, A, senses, b = _random_lp(rng)
        result = solve_dense_lp(c, A, senses, b)
        A_ub = np.vstack([A[i] for i, s in enumerate(senses) if s == "<="]
                         + [-A[i] for i, s in enumerate(senses) if s == ">="]) \
            if any(s != "=" for s in senses) else None
        b_ub = np.concatenate(
            [[b[i] for i, s in enumerate(senses) if s == "<="],
             [-b[i] for i, s in enumerate(senses) if s == ">="]]) \
            if A_ub is not None else None
        eq_rows = [i for i, s in enumerate(senses) if s == "="]
        A_eq = A[eq_rows] if eq_rows else None
        b_eq = b[eq_rows] if eq_rows else None
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if ref.status == 0:
            assert result.status == "optimal", (result.status, ref.status)
            scale = 1.0 + abs(ref.fun)
            assert abs(result.objective - ref.fun) <= 1e-7 * scale
            checked += 1
        elif ref.status == 2:
            assert result.status == "infeasible"
        elif ref.status == 3:
            assert result.status == "unbounded"
    assert checked >= 30  # enough solvable draws to mean something
