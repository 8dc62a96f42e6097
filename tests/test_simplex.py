"""The bundled dense simplex against scipy, its pinned pivot trajectories and
its warm start."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog

from ucdispatch import simplex
from ucdispatch.errors import NumericalFailure
from ucdispatch.simplex import TOL, kernel_name, solve_dense_lp


def test_kernel_name_is_python():
    # benchmark fingerprints record this name
    assert kernel_name() == "python"


def test_simple_optimum():
    result = solve_dense_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]],
                            ["<=", "<="], [4.0, 3.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-8.0)
    assert result.x == pytest.approx([0.0, 4.0])


def test_overflow_is_a_numerical_failure():
    # the optimum -1e308 * 1e308 overflows: this was "optimal" at -inf
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        solve_dense_lp([-1e308], [[1.0]], ["<="], [1e308])


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


@pytest.mark.parametrize("b", [1.0, -1.0], ids=["kept", "flipped"])
def test_unknown_sense_is_rejected(b):
    # an unknown sense used to get no slack and no artificial: "optimal"
    # on a row it never read, or a KeyError once flipped
    with pytest.raises(ValueError, match="unknown row sense '=='"):
        solve_dense_lp([1.0], [[1.0]], ["=="], [b])


def test_degenerate_lp_terminates():
    # multiple rows active at the optimum; Bland must not cycle
    A = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    result = solve_dense_lp([-1.0, -1.0], A, ["<="] * 4, [1.0, 1.0, 1.0, 1.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-1.0)


def test_no_rows():
    result = solve_dense_lp([1.0, 2.0], np.zeros((0, 2)), [], [])
    assert result.status == "optimal" and result.iterations == 0
    assert result.x.tolist() == [0.0, 0.0] and result.objective == 0.0
    # it carries its tableau, the cost row alone, like any other optimum
    assert result.tableau.shape == (1, 3)
    warm = solve_dense_lp([1.0, 2.0], np.zeros((0, 2)), [], [], start=result)
    assert warm.warm and warm.iterations == 0 and warm.x.tolist() == [0.0, 0.0]
    assert solve_dense_lp([-1.0], np.zeros((0, 1)), [], []).status == "unbounded"


def test_iteration_cap_raises(monkeypatch):
    # each LP needs two pivots in the phase named; the cap is read per call
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    with pytest.raises(NumericalFailure, match="phase 1 exceeded 1 pivots"):
        solve_dense_lp([1.0, 1.0], np.eye(2), [">=", ">="], [1.0, 1.0])
    with pytest.raises(NumericalFailure, match="phase 2 exceeded 1 pivots"):
        solve_dense_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]],
                       ["<=", "<="], [4.0, 3.0])


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


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_duals_of_the_golden_draws_are_optimal(label):
    # GOLDEN_TRAJECTORIES pins that the pivots are unmoved
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        result = solve_dense_lp(c, A, senses, b)
        if result.status != "optimal":
            assert result.dual is None
            continue
        assert_certified(result, c, A, senses, b)
        checked += 1
    assert checked >= 100


def assert_certified(result, c, A, senses, b):
    """Weak duality certifies an optimum: y keeps its signs, c - A'y >= 0
    and b.y equals c.x; neither x nor y holds a negative zero."""
    y, senses = result.dual, np.array(senses)
    assert y.shape == (len(b),)
    assert np.all(y[senses == "<="] <= TOL) and np.all(y[senses == ">="] >= -TOL)
    assert np.all(c - A.T @ y >= -1e-9)
    primal = c @ result.x
    assert abs(primal - b @ y) <= 1e-7 * (1.0 + abs(primal))
    assert not np.signbit(result.x[result.x == 0.0]).any()
    assert not np.signbit(y[y == 0.0]).any()


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_warm_start_from_each_golden_optimum(label):
    # a new b, some of its signs flipped, from the basis of each optimal
    # draw: the cold status and optimum, with a certified dual
    rng, noise = np.random.default_rng(42), np.random.default_rng(7)
    warm = 0
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        first = solve_dense_lp(c, A, senses, b)
        if first.status != "optimal":
            continue
        for new_b in (b + noise.normal(scale=3.0, size=b.shape), -b,
                      np.where(noise.random(b.shape) < 0.5, -b, b)):
            cold = solve_dense_lp(c, A, senses, new_b)
            result = solve_dense_lp(c, A, senses, new_b, start=first)
            assert result.status == cold.status
            warm += result.warm
            if cold.status == "optimal":
                assert abs(result.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
                assert_certified(result, c, A, senses, new_b)
    assert warm >= 300


def test_warm_start_finds_infeasibility():
    # x >= 0.5, x <= 1 is solved at x = 0.5; x >= 2, x <= 1 has no point
    first = solve_dense_lp([1.0], [[1.0], [1.0]], [">=", "<="], [0.5, 1.0])
    result = solve_dense_lp([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0], start=first)
    assert result.warm and result.status == "infeasible" and result.x is None


@pytest.mark.parametrize("first, lp", [
    # the doubled equality row is dropped as redundant: no basis to start from
    (([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ["=", "="], [3.0, 6.0]),
     ([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ["=", "="], [2.0, 4.0])),
    # another cost vector: the slack basis prices x out below -TOL, and
    # x0 >= 1 would send a dual simplex on a pivot
    (([1.0, 1.0], [[1.0, 1.0], [-1.0, 0.0]], ["<=", "<="], [4.0, 3.0]),
     ([-1.0, -2.0], [[1.0, 1.0], [-1.0, 0.0]], ["<=", "<="], [4.0, -1.0])),
], ids=["redundant-row", "negative-reduced-cost"])
def test_warm_start_falls_back_to_cold(first, lp):
    start = solve_dense_lp(*first)
    assert start.status == "optimal"
    cold, result = solve_dense_lp(*lp), solve_dense_lp(*lp, start=start)
    assert not result.warm
    assert (result.status, result.iterations, result.x.tobytes()) == \
        (cold.status, cold.iterations, cold.x.tobytes())


def test_warm_pivot_cap_falls_back_to_cold(monkeypatch):
    # two dual pivots from the first basis, none cold; the cap is 1
    lp = ([1.0, 1.0], [[-1.0, 2.0], [0.0, -1.0]], ["<=", "<="])
    start = solve_dense_lp(*lp, [0.0, -2.0])
    assert solve_dense_lp(*lp, [1.0, 2.0], start=start).iterations == 2
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    result = solve_dense_lp(*lp, [1.0, 2.0], start=start)
    assert not result.warm and result.status == "optimal"
    assert result.iterations == 1 and result.x.tolist() == [0.0, 0.0]


def new_rhs(b, noise):
    """Right-hand sides for warm starts from the optimum at ``b``."""
    return (b + noise.normal(scale=3.0, size=b.shape), -b,
            np.where(noise.random(b.shape) < 0.5, -b, b))


def assert_cold_answer(result, cold):
    assert result.status == cold.status
    if cold.status == "optimal":
        assert abs(result.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_tampered_inverse_is_caught(label):
    # B^-1 in the carried tableau scaled by 1.5: the same b then gives an
    # optimum at 1.5 x, which breaks each binding row with b != 0
    rng = np.random.default_rng(42)
    rejected = 0
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        first = solve_dense_lp(c, A, senses, b)
        if first.status != "optimal" or first.basis is None:
            continue
        start = dataclasses.replace(first, tableau=first.tableau.copy())
        start.tableau[:len(b), start.identity] *= 1.5
        result = solve_dense_lp(c, A, senses, b, start=start)
        assert_cold_answer(result, first)
        assert not (result.rejected and result.warm)
        rejected += result.rejected
    assert rejected >= 90


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_carried_reduced_costs_are_never_read(label):
    # the reduced costs of the carried tableau zeroed: they are priced out
    # again from c, so every warm solve keeps its bits
    rng, noise = np.random.default_rng(42), np.random.default_rng(7)
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        first = solve_dense_lp(c, A, senses, b)
        if first.status != "optimal" or first.basis is None:
            continue
        start = dataclasses.replace(first, tableau=first.tableau.copy())
        start.tableau[-1] = 0.0
        for new_b in new_rhs(b, noise):
            expected = solve_dense_lp(c, A, senses, new_b, start=first)
            result = solve_dense_lp(c, A, senses, new_b, start=start)
            assert (result.status, result.iterations, result.warm, result.rejected) == \
                (expected.status, expected.iterations, expected.warm, expected.rejected)
            if result.x is not None:
                assert result.x.tobytes() == expected.x.tobytes()


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_warm_start_from_another_matrix(label):
    # the start solved another A of the same shape: each answer of its
    # carried tableau that is wrong for this A fails the check
    rng, noise = np.random.default_rng(42), np.random.default_rng(7)
    rejected = 0
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        first = solve_dense_lp(c, A, senses, b)
        if first.status != "optimal":
            continue
        other = A + noise.normal(scale=0.3, size=A.shape)
        for new_b in (b, *new_rhs(b, noise)):
            result = solve_dense_lp(c, other, senses, new_b, start=first)
            assert_cold_answer(result, solve_dense_lp(c, other, senses, new_b))
            assert not (result.rejected and result.warm)
            rejected += result.rejected
    assert rejected >= 200


def test_another_matrix_fails_the_dual_check():
    # x = (2, 0) from the carried tableau meets 2 x0 + x1 >= 2, but its dual
    # prices x0 at 1 - 2 < 0: the cold optimum is (1, 0)
    first = solve_dense_lp([1.0, 2.0], [[1.0, 1.0]], [">="], [2.0])
    result = solve_dense_lp([1.0, 2.0], [[2.0, 1.0]], [">="], [2.0], start=first)
    assert result.rejected and not result.warm
    assert result.x.tolist() == [1.0, 0.0] and result.objective == 1.0


@pytest.mark.parametrize("label", sorted(DRAWS))
def test_warm_start_from_another_cost_vector(label):
    # starts from a perturbed c, so only reduced costs priced out from this
    # c stay warm: each answer is the cold one
    rng, noise = np.random.default_rng(42), np.random.default_rng(7)
    warm = 0
    for _ in range(400):
        c, A, senses, b = DRAWS[label](rng)
        first = solve_dense_lp(c + noise.normal(scale=0.1, size=c.shape), A, senses, b)
        if first.status != "optimal":
            continue
        for new_b in new_rhs(b, noise):
            result = solve_dense_lp(c, A, senses, new_b, start=first)
            assert_cold_answer(result, solve_dense_lp(c, A, senses, new_b))
            warm += result.warm
    assert warm >= 250


def test_dual_of_flipped_and_redundant_rows():
    # -x0 <= -1 is flipped to x0 >= 1 inside and keeps its own sign outside;
    # the doubled equality row is dropped as redundant and gets 0
    result = solve_dense_lp([1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                            ["<=", "=", "="], [-1.0, 3.0, 6.0])
    assert result.status == "optimal" and result.objective == pytest.approx(3.0)
    assert result.dual.tolist() == pytest.approx([0.0, 1.0, 0.0])
    result = solve_dense_lp([1.0], [[-1.0]], ["<="], [-1.0])
    assert result.dual.tolist() == pytest.approx([-1.0])
    assert solve_dense_lp([1.0], np.zeros((0, 1)), [], []).dual.shape == (0,)


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
