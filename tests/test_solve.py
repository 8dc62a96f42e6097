"""Built-in exact solver, solution parsing/checking, external bridge."""

import dataclasses
import hashlib
import itertools
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHIM_TEMPLATE
from helpers import fixture_instance, make_instance, make_unit, random_instance
import ucdispatch.simplex as simplex_module
import ucdispatch.solve as solve_module
from ucdispatch import mipshim
from ucdispatch.errors import (
    NumericalFailure,
    ResidualCheckFailed,
    SolverLaunchFailed,
    SolverNonZeroExit,
    TooManyBinaries,
    UnparsableSolution,
)
from ucdispatch.instance import StartupCostCurve
from ucdispatch.model import (SENSE_CODE, ColumnIndex, MilpModel, RowBlock, RowMatrix,
                              build_model)
from ucdispatch.simplex import LpResult
from ucdispatch.solve import (
    DUAL_SKIP_REL,
    SolverConfig,
    _ExactEngine,
    _tie_cut,
    check_solution,
    enumerate_optimal_patterns,
    parse_solution_file,
    solve_exact,
    solve_external,
)
from ucdispatch.thinning import thin_all
from ucdispatch.writers import write_mps


def build(instance, tol=None):
    return build_model(instance, thin_all(instance, tol))


def value(model, solution, name):
    return solution.values[model.column_of(name)]


def twin_unit_instance(seed):
    """A random one-unit instance plus an identical copy of its unit."""
    rng = np.random.default_rng(seed)
    instance = random_instance(rng, 1, int(rng.integers(2, 5)))
    (unit,) = instance.units
    curves = {**instance.startup_curves,
              2: StartupCostCurve(2, dict(instance.curve(1).costs))}
    return dataclasses.replace(
        instance, units=(unit, dataclasses.replace(unit, unit_id=2)),
        startup_curves=curves)


def enumeration_instance():
    """One unit over ten periods with no commitment rule: all 1024 patterns
    reach the LP unless something else rules them out."""
    T = 10
    return make_instance(
        [make_unit(1, shutdown_cost=40.0)],
        demand=tuple(90.0 + 12.0 * k for k in range(T)),
        reserve=(5.0,) * T,
        curves={1: StartupCostCurve(1, {t: 150.0 + 40.0 * t for t in range(1, 7)})})


class TestSolveExact:
    def test_fixture_optimum(self, fixture_inst):
        model = build(fixture_inst)
        solution = solve_exact(model)
        assert solution.status == "optimal"
        assert solution.backend == "builtin-exact"
        assert solution.objective == pytest.approx(2700.0, abs=1e-9)
        assert value(model, solution, "v_1_1") == 1.0
        assert value(model, solution, "v_1_2") == 1.0
        assert value(model, solution, "p_1_1") == pytest.approx(100.0)
        assert value(model, solution, "p_1_2") == pytest.approx(150.0)

    def test_zero_demand_with_fixed_cost_shuts_down(self):
        instance = make_instance(
            [make_unit()], demand=(0.0, 0.0),
            curves={1: StartupCostCurve(1, {1: 500.0})})
        model = build(instance)
        solution = solve_exact(model)
        assert solution.objective == pytest.approx(0.0, abs=1e-9)
        assert value(model, solution, "v_1_1") == 0.0
        assert value(model, solution, "v_1_2") == 0.0

    def test_over_capacity_demand_activates_slack(self):
        instance = make_instance(
            [make_unit()], demand=(300.0, 150.0),
            curves={1: StartupCostCurve(1, {1: 500.0})})
        model = build(instance)
        solution = solve_exact(model)
        assert solution.status == "optimal"
        assert value(model, solution, "pu_1") == pytest.approx(100.0)
        report = check_solution(model, solution.values)
        assert report.passed

    def test_binary_budget(self, fixture_inst):
        model = build(fixture_inst)
        with pytest.raises(TooManyBinaries):
            solve_exact(model, SolverConfig(binary_budget=1))

    def test_exact_solution_residuals_tiny(self, storage_inst):
        model = build(storage_inst)
        solution = solve_exact(model)
        assert solution.status == "optimal"
        report = check_solution(model, solution.values)
        assert report.max_residual <= 1e-9
        assert report.integrality_gap == 0.0

    def test_initial_state_is_respected(self):
        instance = make_instance(
            [make_unit(initial_downtime=2, min_downtime=2, fixed_cost=0.0)],
            demand=(100.0, 100.0, 100.0))
        model = build(instance)
        solution = solve_exact(model)
        assert value(model, solution, "v_1_1") == 0.0
        assert value(model, solution, "v_1_2") == 0.0
        assert value(model, solution, "v_1_3") == 1.0

    def test_min_uptime_prunes_patterns(self):
        # UT=3 over T=3: once started, stay on; shutting down mid-horizon
        # after a period-2 start is not allowed
        instance = make_instance(
            [make_unit(min_uptime=3, fixed_cost=10.0)],
            demand=(0.0, 0.0, 120.0))
        model = build(instance)
        solution = solve_exact(model)
        v = [value(model, solution, f"v_1_{k}") for k in (1, 2, 3)]
        assert v[2] == 1.0

    def test_tie_breaks_prefer_lexicographically_smallest(self):
        # two identical units, demand satisfiable by either one alone;
        # the all-off pattern is infeasible-cost-wise identical between
        # (on,off) choices, so unit order decides
        instance = make_instance(
            [make_unit(1, p_min=0.0, fixed_cost=0.0, var_cost=10.0),
             make_unit(2, p_min=0.0, fixed_cost=0.0, var_cost=10.0)],
            demand=(100.0,))
        # twin units whose two tied patterns differ in the last bits of
        # their LP optima: a raw < once kept the later pattern
        for instance in (instance, twin_unit_instance(164), twin_unit_instance(187)):
            model = build(instance)
            patterns = enumerate_optimal_patterns(model)
            solution = solve_exact(model)
            chosen = tuple(int(solution.values[col]) for col in model.binary_columns())
            assert len(patterns) >= 2
            assert chosen == patterns[0] == min(patterns)
            assert solution.objective == pytest.approx(
                model.objective_value(solution.values), rel=1e-12)

    def test_overflowing_pattern_bound_is_a_numerical_failure(self):
        # pattern (1, 1) overflows the bound of cu to -inf; this used to warn
        # and drop the pattern as infeasible
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 1, 2), ("cu", 1, 2)]),
            RowMatrix.from_blocks([RowBlock("r", [1], "<=", 1.0,
                                            [([0, 0, 0], [0, 1, 2], [1e308, 1e308, 1.0])])]),
            {2: 1.0})
        with pytest.raises(NumericalFailure, match="overflow"):
            solve_exact(model)

    def test_overflowing_single_row_reciprocal_is_a_numerical_failure(self):
        # -v + 1e-320 cu <= 0: the reciprocal of the subnormal coefficient
        # overflows to inf; this used to warn while the engine was set up
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("cu", 1, 1)]),
            RowMatrix.from_blocks([RowBlock("r", [1], "<=", 0.0,
                                            [([0, 0], [0, 1], [-1.0, 1e-320])])]),
            {1: 1.0})
        with pytest.raises(NumericalFailure, match="overflow in the LP bounds of pattern 1$"):
            solve_exact(model)

    def test_overflowing_dual_bound_is_a_numerical_failure(self):
        # p1 + p2 + 1e307 v1 >= 1.0000001e307: the walk solves 11 and 10;
        # their dual, 20, times the b of 01, 1.0000001e307, overflows
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("p", 1, 1), ("p", 2, 1)]),
            RowMatrix.from_blocks([RowBlock("d", [1], ">=", 1.0000001e307,
                                            [([0, 0, 0], [0, 2, 3], [1e307, 1.0, 1.0])])]),
            {0: 1.0, 1: 1.0, 2: 20.0, 3: 30.0})
        engine = _ExactEngine(model, SolverConfig())
        with pytest.raises(NumericalFailure, match="overflow encountered in matmul"):
            engine.optimal()
        assert (engine.stats["lps"], engine.stats["dual_pruned"]) == (2, 0)

    @pytest.mark.parametrize("block", [1, 3])
    def test_overflow_raises_at_its_place_across_blocks(self, block, monkeypatch):
        # p1 + p2 - 1e308 v1 + 1e308 v2 + 1e308 v3 <= 0: only pattern 011's
        # b overflows, the fifth of the walk; blocks of 3 cut the walk into
        # 111 110 101 | 100 011 010 | 001 000
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("v", 3, 1),
                                   ("p", 1, 1), ("p", 2, 1)]),
            RowMatrix.from_blocks([
                RowBlock("room", [1], "<=", 0.0, [([0] * 5, [0, 1, 2, 3, 4],
                                                   [-1e308, 1e308, 1e308, 1.0, 1.0])]),
                RowBlock("demand", [1], ">=", 1.0, [([0, 0], [3, 4], [1.0, 1.0])])]),
            {3: 1.0, 4: 2.0})
        monkeypatch.setattr(solve_module, "PATTERN_BLOCK", block)
        before = []
        with pytest.raises(NumericalFailure, match="LP bounds of pattern 011$"):
            for pattern, _, b in walked(_ExactEngine(model, SolverConfig())):
                before.append((tuple(pattern), b.tobytes()))
        assert [p for p, _ in before] == [(1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0)]

        calls, lp = [], solve_module.solve_dense_lp
        monkeypatch.setattr(solve_module, "solve_dense_lp", lambda c, A, senses, b, start=None:
                            calls.append(b.tobytes()) or lp(c, A, senses, b, start=start))
        engine = _ExactEngine(model, SolverConfig())
        with pytest.raises(NumericalFailure, match="LP bounds of pattern 011$"):
            engine.optimal()
        assert calls == [b for _, b in before]
        assert engine.stats["lps"] == 4

    @pytest.mark.parametrize("rows", [
        # v = 1 and v = 0 on the same column
        [RowBlock("initial-on", [1], "=", 1.0, [([0], [1.0])]),
         RowBlock("initial-off", [1], "=", 0.0, [([0], [1.0])])],
        # a fixing row of value 0.5
        [RowBlock("initial-on", [1], "=", 1.0, [([0], [2.0])])],
    ], ids=["conflicting", "fractional"])
    def test_fixing_rows_no_pattern_meets_are_infeasible(self, rows):
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 1, 2), ("p", 1, 1)]),
            RowMatrix.from_blocks([*rows, RowBlock("demand", [1], ">=", 1.0,
                                                   [([2], [1.0])])]),
            {2: 1.0})
        solution = solve_exact(model)
        assert solution.status == "infeasible"
        assert solution.stats["patterns"] == 0
        assert enumerate_optimal_patterns(model) == []

    def test_row_less_lps_never_start_warm(self):
        # the demand row folds into p's bound, so each pattern's LP has no
        # rows: its cold answer costs no pivot, and a warm one was solved
        # cold again (warm 3, resolved 3)
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 1, 2), ("p", 1, 1)]),
            RowMatrix.from_blocks([RowBlock("demand", [1], ">=", 1.0, [([2], [1.0])])]),
            {2: 1.0})
        solution = solve_exact(model)
        assert (solution.status, solution.objective) == ("optimal", 1.0)
        assert {key: solution.stats[key] for key in ("lps", "warm", "resolved", "pivots")} == {
            "lps": 4, "warm": 0, "resolved": 0, "pivots": 0}
        assert enumerate_optimal_patterns(model) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_every_source_gives_one_value_per_column(self, fixture_inst):
        model = build(fixture_inst)
        config = SolverConfig(backend="external", command_template=SHIM_TEMPLATE)
        for solution in (solve_exact(model), solve_external(model, config)):
            assert isinstance(solution.values, np.ndarray)
            assert solution.values.shape == (model.num_columns,)
            assert type(solution.objective) is float


class TestEnumerateOptimalPatterns:
    def test_fixture_has_unique_optimum(self, fixture_inst):
        model = build(fixture_inst)
        assert enumerate_optimal_patterns(model) == [(1, 1)]

    def test_symmetric_units_tie(self):
        instance = make_instance(
            [make_unit(1, p_min=0.0, fixed_cost=0.0),
             make_unit(2, p_min=0.0, fixed_cost=0.0)],
            demand=(100.0,))
        model = build(instance)
        patterns = enumerate_optimal_patterns(model)
        assert (0, 1) in patterns and (1, 0) in patterns


#: (units, periods) of the pinned desk instances: 8 to 12 binaries each
PINNED_SHAPES = [(1, 8), (2, 4), (1, 9), (3, 3), (1, 10),
                 (2, 5), (1, 11), (3, 4), (1, 12), (2, 6)]
#: SHA-256 over the answers of the exact engine on the instances of
#: ``pinned_instances``: a change to the LP loop must leave every bit of them
PINNED_ANSWERS = "83ea19366e3ea8090fdf50a41d50a53639ef3f8ebe88c257d8c3b2de6f9e0df2"


def pinned_instances():
    """Twenty seeded desk instances, each shape once without a storage unit
    and once with one."""
    for seed, (n_units, T) in enumerate(PINNED_SHAPES * 2):
        yield random_instance(np.random.default_rng(seed), n_units, T,
                              with_storage=seed >= len(PINNED_SHAPES))


def test_exact_answers_are_pinned():
    # the status and objective repr, the value bytes and the optimal
    # patterns of each instance
    digest = hashlib.sha256()
    for instance in pinned_instances():
        model = build(instance)
        solution = solve_exact(model)
        digest.update(f"{solution.status} {solution.objective!r};".encode())
        digest.update(solution.values.tobytes())
        digest.update(f"{enumerate_optimal_patterns(model)};".encode())
    assert digest.hexdigest() == PINNED_ANSWERS


#: SHA-256 over every counter of ``Solution.stats`` and the optimal
#: patterns of the exact engine on ``pinned_instances``: a change that only
#: simplifies the engine must leave each of them as it was
PINNED_COUNTERS = "71ac9fdfa674f326e44e0a7791f6c9c34e74b3c2d4a38fab6e20c509a9caff5a"


def test_exact_counters_are_pinned():
    digest = hashlib.sha256()
    for instance in pinned_instances():
        model = build(instance)
        digest.update(f"{sorted(solve_exact(model).stats.items())};".encode())
        digest.update(f"{enumerate_optimal_patterns(model)};".encode())
    assert digest.hexdigest() == PINNED_COUNTERS


def walked(engine):
    """``(pattern, lower, b)`` of each pattern of ``engine.patterns()``, in
    the walk's order."""
    for batch in engine.patterns():
        yield from zip(*batch)


def unpruned_ties(engine):
    """The tie list of a full enumeration, in lexicographic order: every
    pattern cold-solved."""
    best, ties = np.inf, []
    for pattern, lower, b in walked(engine):
        result = solve_module.solve_dense_lp(engine.c_cont, engine.lp_matrix,
                                             engine.lp_senses, b)
        if result.status == "unbounded":
            return None
        if result.status != "optimal":
            continue
        x = result.x + lower
        objective = float(engine.c_cont @ x + engine.c_bin @ pattern)
        if objective > _tie_cut(best):
            continue
        if objective < best:
            best = objective
            ties = [tie for tie in ties if tie[1] <= _tie_cut(best)]
        ties.append((pattern.copy(), objective, x))
    return sorted(ties, key=lambda tie: tie[0].tobytes())


def pattern_lp(engine, pattern):
    """The shift ``lower`` and the right-hand side of one pattern's LP over
    ``x - lower``, or None when the pattern's bounds cross: the engine's
    bounds one pattern at a time, as a reference for its blocks."""
    nc = engine.nc
    lower = np.zeros(nc)
    upper = np.full(nc, np.inf)
    if len(engine.s_var):
        vals = (engine.s_rhs - engine.s_bin @ pattern) * engine.s_inv
        np.minimum.at(upper, engine.s_var[engine.s_is_ub], vals[engine.s_is_ub])
        np.maximum.at(lower, engine.s_var[engine.s_is_lb], vals[engine.s_is_lb])
    if np.any(lower > upper + 1e-9):
        return None
    b = np.concatenate([
        engine.m_rhs - engine.m_bin @ pattern - engine.m_cont @ lower,
        upper[engine.fin_vars] - lower[engine.fin_vars],
    ])
    return lower, b


def reference_patterns(engine):
    """Every 0/1 pattern in lexicographic order that each binary row allows,
    with ``pattern_lp`` of it (None where its bounds cross)."""
    lhs_ok = {SENSE_CODE["<="]: lambda lhs, rhs: lhs <= rhs + 1e-9,
              SENSE_CODE[">="]: lambda lhs, rhs: lhs >= rhs - 1e-9,
              SENSE_CODE["="]: lambda lhs, rhs: abs(lhs - rhs) <= 1e-9}
    for bits in itertools.product((0, 1), repeat=len(engine.bin_cols)):
        pattern = np.array(bits, dtype=np.int8)
        lhs = engine.pure_w @ pattern
        if all(lhs_ok[sense](value, rhs) for value, sense, rhs
               in zip(lhs, engine.pure_sense, engine.pure_rhs)):
            yield pattern, pattern_lp(engine, pattern)


@st.composite
def desk_instances(draw):
    """Random instances of at most 8 binaries, some with a storage unit and
    some with an identical copy of unit 1, whose patterns tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_units, twin = draw(st.integers(1, 2)), draw(st.booleans())
    T = draw(st.integers(2, 8 // (n_units + twin)))
    instance = random_instance(rng, n_units, T, with_storage=draw(st.booleans()))
    if not twin:
        return instance
    copy = dataclasses.replace(instance.units[0], unit_id=n_units + 1)
    curves = {**instance.startup_curves,
              copy.unit_id: StartupCostCurve(copy.unit_id, dict(instance.curve(1).costs))}
    return dataclasses.replace(instance, units=(*instance.units, copy),
                               startup_curves=curves)


def same_as_full_enumeration(model):
    """Check the engine's ties against a cold solve of every pattern and
    ``solve_exact`` against the first of them; return the ties and stats."""
    engine = _ExactEngine(model, SolverConfig())
    ties, expected = engine.optimal(), unpruned_ties(engine)
    assert [tuple(p) for p, _, _ in ties] == [tuple(p) for p, _, _ in expected]
    assert [o for _, o, _ in ties] == [o for _, o, _ in expected]
    assert [x.tobytes() for _, _, x in ties] == [x.tobytes() for _, _, x in expected]
    pattern, objective, x = expected[0]
    values = np.empty(model.num_columns)
    values[engine.bin_cols], values[engine.cont_cols] = pattern, x
    solution = solve_exact(model)
    assert solution.objective == objective
    assert solution.values.tobytes() == values.tobytes()
    return ties, solution.stats


def alone(rhs, w, pattern):
    """``rhs - w @ pattern`` for one pattern, one column at a time in
    column order: ``bit * w[:, j]`` off each sum, as the walk takes it."""
    sums = rhs.copy()
    for j, bit in enumerate(pattern):
        sums = sums - (w[:, j] if bit else 0.0 * w[:, j])
    return sums


def screened_alone(engine):
    """``(pattern, lower, b)`` of each pattern that the binary rows and its
    bounds allow, in the walk's order, each pattern's binary, bound and LP
    rows taken alone, with the counts of ``patterns`` and
    ``bound_infeasible``."""
    walk, passed, crossed = [], 0, 0
    template = np.maximum(engine.fixed, 0)
    fin = engine.fin_vars
    for code in range((1 << len(engine.free)) - 1, -1, -1):
        pattern = template.copy()
        pattern[engine.free] = [int(bit) for bit in format(code, f"0{len(engine.free)}b")]
        gap = -alone(engine.pure_rhs, engine.pure_w, pattern)
        if not (np.choose(engine.pure_sense, (gap, np.abs(gap), -gap)) <= 1e-9).all():
            continue
        passed += 1
        vals = alone(engine.s_rhs, engine.s_bin, pattern) * engine.s_inv
        upper, lower = np.full(engine.nc, np.inf), np.zeros(engine.nc)
        np.minimum.at(upper, engine.s_var[engine.s_is_ub], vals[engine.s_is_ub])
        np.maximum.at(lower, engine.s_var[engine.s_is_lb], vals[engine.s_is_lb])
        assert np.isfinite(vals).all()
        if (lower > upper + 1e-9).any():
            crossed += 1
            continue
        b = alone(engine.m_rhs, engine.m_bin, pattern)
        for var in engine.lb_vars:
            b = b - lower[var] * engine.m_cont[:, var]
        walk.append((pattern, lower, np.concatenate([b, upper[fin] - lower[fin]])))
    return walk, passed, crossed


class TestPrefixWalk:
    @pytest.mark.parametrize("block", [1, 3, 4096])
    @settings(max_examples=25, deadline=None)
    @given(desk_instances())
    def test_walk_matches_each_pattern_alone(self, block, instance):
        # every yielded byte and both screen counters, whatever prefixes
        # the binary rows and the crossing bounds cut, and wherever the
        # block seams fall
        engine = _ExactEngine(build(instance), SolverConfig())
        expected, passed, crossed = screened_alone(engine)
        with mock.patch.object(solve_module, "PATTERN_BLOCK", block):
            got = list(walked(engine))
        assert [(p.astype(np.int8).tobytes(), lower.tobytes(), b.tobytes())
                for p, lower, b in got] == [
            (p.astype(np.int8).tobytes(), lower.tobytes(), b.tobytes())
            for p, lower, b in expected]
        assert (engine.stats["patterns"], engine.stats["bound_infeasible"]) == (passed, crossed)

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_bounds_that_settle_late_match_each_pattern_alone(self, block):
        # y <= -1 + v1 + v3 crosses y >= 0 unless v1 or v3 is on, and
        # 2 v1 <= z <= 1 + v3 cross on 1?0: both settle at v3, and checked
        # on the prefixes 0 and 1 alone they would cut 0?1 and 1?1
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("v", 3, 1),
                                   ("p", 1, 1), ("p", 2, 1), ("p", 3, 1)]),
            RowMatrix.from_blocks([
                RowBlock("y", [1], "<=", -1.0, [([0] * 3, [0, 2, 3], [-1.0, -1.0, 1.0])]),
                RowBlock("z-low", [1], ">=", 0.0, [([0, 0], [0, 4], [-2.0, 1.0])]),
                RowBlock("z-high", [1], "<=", 1.0, [([0, 0], [2, 4], [-1.0, 1.0])]),
                RowBlock("demand", [1], ">=", 1.0, [([0, 0], [3, 5], [1.0, 1.0])])]),
            {3: 1.0, 4: 1.0, 5: 3.0})
        engine = _ExactEngine(model, SolverConfig())
        expected, passed, crossed = screened_alone(engine)
        with mock.patch.object(solve_module, "PATTERN_BLOCK", block):
            got = list(walked(engine))
        assert [tuple(p) for p, _, _ in got] == [(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1)]
        assert [(lower.tobytes(), b.tobytes()) for _, lower, b in got] == [
            (lower.tobytes(), b.tobytes()) for _, lower, b in expected]
        assert (engine.stats["patterns"], engine.stats["bound_infeasible"]) == (passed, crossed)

    @pytest.mark.parametrize("block, reached", [(2, 2), (4096, 0)])
    def test_binary_overflow_after_a_failed_row_raises_before_its_blocks_lps(
            self, block, reached, monkeypatch):
        # v1 >= 1 fails the prefix 0 at v1, and -1e308 v1 + 1e308 v2 <= -1e308
        # overflows later, on the prefix 01.  Blocks of 2 cut the walk into
        # 111 110 | 101 100 | 011 010 | 001 000: the first fails the second
        # row, the second passes and the third raises before its LPs
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("v", 3, 1),
                                   ("p", 1, 1), ("p", 2, 1)]),
            RowMatrix.from_blocks([
                RowBlock("on", [1], ">=", 1.0, [([0], [1.0])]),
                RowBlock("big", [1], "<=", -1e308, [([0, 0], [0, 1], [-1e308, 1e308])]),
                RowBlock("demand", [1], ">=", 1.0, [([0, 0], [3, 4], [1.0, 1.0])])]),
            {3: 1.0, 4: 2.0})
        monkeypatch.setattr(solve_module, "PATTERN_BLOCK", block)
        engine = _ExactEngine(model, SolverConfig())
        with pytest.raises(NumericalFailure, match="overflow encountered in subtract"):
            engine.optimal()
        assert engine.stats["patterns"] == reached
        assert engine.stats["lps"] + engine.stats["dual_pruned"] == reached

    @pytest.mark.parametrize("block, crossed", [(1, 0), (3, 0), (4096, 1)])
    def test_overflowing_bounds_that_also_cross_raise_at_their_place(
            self, block, crossed, monkeypatch):
        # x <= 1e308 - 1e308 v1 + 1e308 v2 overflows on pattern 01, and
        # y <= -1 + 2 v1 crosses y >= 0 on 01 and 00: the walk yields 11 and
        # 10 and raises at 01, which it would skip if it cut the prefix 0;
        # 00 is counted crossed only if it shares the block of 01
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("p", 1, 1), ("p", 2, 1)]),
            RowMatrix.from_blocks([
                RowBlock("cap", [1], "<=", 1e308, [([0] * 3, [0, 1, 2], [1e308, -1e308, 1.0])]),
                RowBlock("low", [1], "<=", -1.0, [([0, 0], [0, 3], [-2.0, 1.0])]),
                RowBlock("demand", [1], ">=", 1.0, [([0, 0], [2, 3], [1.0, 1.0])])]),
            {2: 1.0, 3: 2.0})
        monkeypatch.setattr(solve_module, "PATTERN_BLOCK", block)
        before = []
        with pytest.raises(NumericalFailure, match="LP bounds of pattern 01$"):
            for pattern, _, _ in walked(_ExactEngine(model, SolverConfig())):
                before.append(tuple(pattern))
        assert before == [(1, 1), (1, 0)]
        engine = _ExactEngine(model, SolverConfig())
        with pytest.raises(NumericalFailure, match="LP bounds of pattern 01$"):
            engine.optimal()
        assert engine.stats["bound_infeasible"] == crossed

    @pytest.mark.parametrize("block", [1, 3, 4096])
    @pytest.mark.parametrize("late", [False, True], ids=["settled", "at-leaves"])
    def test_lp_rows_that_overflow_only_where_bounds_cross_never_raise(self, block, late):
        # p1 + p2 - 1e308 v2 <= 1e308 overflows on ?1, where p3 <= 1 - 2 v2
        # crosses p3 >= 0: the bound pair drops ?1 where v2 settles it, or,
        # with p4 <= 1e308 - 1e308 v1, whose family could overflow, at the
        # leaves; either way the LP sums of ?1 go with their patterns
        rows = [RowBlock("room", [1], "<=", 1e308, [([0] * 3, [1, 2, 3], [-1e308, 1.0, 1.0])]),
                RowBlock("p3-cap", [1], "<=", 1.0, [([0, 0], [1, 4], [2.0, 1.0])]),
                RowBlock("demand", [1], ">=", 1.0, [([0, 0], [2, 3], [1.0, 1.0])])]
        keys = [("v", 1, 1), ("v", 2, 1), ("p", 1, 1), ("p", 2, 1), ("p", 3, 1)]
        if late:
            rows.append(RowBlock("p4-cap", [1], "<=", 1e308, [([0, 0], [0, 5], [1e308, 1.0])]))
            keys.append(("p", 4, 1))
        model = MilpModel(ColumnIndex.from_keys(keys), RowMatrix.from_blocks(rows),
                          {2: 1.0, 3: 2.0})
        expected, passed, crossed = screened_alone(_ExactEngine(model, SolverConfig()))
        assert (passed, crossed) == (4, 2)
        with mock.patch.object(solve_module, "PATTERN_BLOCK", block):
            engine = _ExactEngine(model, SolverConfig())
            got = list(walked(engine))
            solution = solve_exact(model)
        assert [(p.tobytes(), lower.tobytes(), b.tobytes()) for p, lower, b in got] == [
            (p.tobytes(), lower.tobytes(), b.tobytes()) for p, lower, b in expected]
        assert (solution.status, solution.objective) == ("optimal", 1.0)
        assert (solution.stats["patterns"], solution.stats["bound_infeasible"]) == (
            passed, crossed)


class TestDualSkip:
    @settings(max_examples=40, deadline=None)
    @given(desk_instances())
    def test_same_answer_as_full_enumeration(self, instance):
        same_as_full_enumeration(build(instance))

    @pytest.mark.parametrize("block", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(desk_instances())
    def test_block_seams_change_nothing(self, block, instance):
        # blocks of one pattern (no prefix shared), of a power of two and of
        # three: several per instance, a partial last one and some that the
        # binary rows or the bounds empty
        model = build(instance)
        ties, stats = same_as_full_enumeration(model)
        with mock.patch.object(solve_module, "PATTERN_BLOCK", block):
            small_ties, small_stats = same_as_full_enumeration(model)
        assert [(p.tobytes(), o, x.tobytes()) for p, o, x in small_ties] == \
            [(p.tobytes(), o, x.tobytes()) for p, o, x in ties]
        assert small_stats == stats

    @settings(max_examples=40, deadline=None)
    @given(desk_instances())
    def test_blocks_match_the_per_pattern_reference(self, instance):
        engine = _ExactEngine(build(instance), SolverConfig())
        reference = list(reference_patterns(engine))
        kept = [(pattern, *shifted) for pattern, shifted in reference if shifted]
        # the walk goes down from the all-on pattern, the reference's last
        kept.reverse()
        got = list(walked(engine))
        assert [p.tobytes() for p, _, _ in got] == [p.tobytes() for p, _, _ in kept]
        for (_, lower, b), (_, ref_lower, ref_b) in zip(got, kept):
            np.testing.assert_allclose(lower, ref_lower, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(b, ref_b, rtol=1e-12, atol=1e-12)
        assert engine.stats["patterns"] == len(reference)
        assert engine.stats["bound_infeasible"] == len(reference) - len(kept)

    def test_unpruned_enumeration_solves_few_lps(self, monkeypatch):
        # 1024 patterns and no commitment rule: the full enumeration solves
        # 1024 LPs; the all-on pattern, solved first, is optimal, and the
        # pooled dual bounds skip all but a few of the rest; the cold
        # re-solves of warm results are counted apart
        calls = []
        lp = solve_module.solve_dense_lp
        monkeypatch.setattr(solve_module, "solve_dense_lp",
                            lambda *args, **kwargs: calls.append(1) or lp(*args, **kwargs))
        solution = solve_exact(build(enumeration_instance()))
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(30400.0)
        assert solution.stats["patterns"] == 1024
        stats = solution.stats
        assert stats["lps"] + stats["resolved"] == len(calls)
        assert stats["lps"] <= 10

    @pytest.mark.parametrize("fault", ["infeasible", "lower", "higher"])
    @pytest.mark.parametrize("make", [lambda: twin_unit_instance(164),
                                      lambda: twin_unit_instance(187),
                                      lambda: random_instance(np.random.default_rng(19), 2, 4,
                                                              with_storage=True)])
    def test_cold_solves_overrule_a_wrong_warm_result(self, make, fault, monkeypatch):
        # each dual simplex on the winning pattern's LP says "infeasible"
        # with a ray that proves nothing, or each warm solve of it moves its
        # optimum by half the skip margin: the answer is unchanged; no winner
        # here is the all-on pattern, whose LP is always solved cold
        model = build(make())
        engine = _ExactEngine(model, SolverConfig())
        expected = unpruned_ties(engine)
        (winner_b,) = [b for p, _, b in walked(engine) if p.tobytes() == expected[0][0].tobytes()]
        shift = 0.5 * DUAL_SKIP_REL * (1.0 + abs(expected[0][1]))
        lp, dual_simplex, hits = solve_module.solve_dense_lp, simplex_module._dual_simplex, []

        def false_infeasible(c, b, start):
            result, iters = dual_simplex(c, b, start)
            if b.tobytes() != winner_b.tobytes():
                return result, iters
            hits.append(fault)
            return LpResult("infeasible", None, np.inf, iters, np.zeros(len(b)), warm=True), iters

        def moved(c, A, senses, b, start=None):
            result = lp(c, A, senses, b, start=start)
            if not result.warm or b.tobytes() != winner_b.tobytes():
                return result
            hits.append(fault)
            col = np.flatnonzero(c)[0]
            delta = shift if fault == "higher" else -shift
            x = result.x.copy()
            x[col] += delta / c[col]
            return dataclasses.replace(result, x=x, objective=result.objective + delta)

        if fault == "infeasible":
            monkeypatch.setattr(simplex_module, "_dual_simplex", false_infeasible)
        else:
            monkeypatch.setattr(solve_module, "solve_dense_lp", moved)
        same_as_full_enumeration(model)
        assert enumerate_optimal_patterns(model) == [tuple(p) for p, _, _ in expected]
        assert hits

    @pytest.mark.parametrize("make", [fixture_instance, enumeration_instance,
                                      lambda: twin_unit_instance(164),
                                      lambda: random_instance(np.random.default_rng(3), 2, 4,
                                                              with_storage=True)])
    def test_stats_account_for_every_pattern(self, make, caplog):
        with caplog.at_level("DEBUG", logger="ucdispatch.solve"):
            stats = solve_exact(build(make())).stats
        assert set(stats) == {"patterns", "bound_infeasible", "dual_pruned", "lps", "warm",
                              "rejected", "resolved", "pivots"}
        assert stats["patterns"] == (stats["bound_infeasible"] + stats["dual_pruned"]
                                     + stats["lps"])
        assert stats["lps"] > 0 and stats["pivots"] > 0
        (record,) = [r for r in caplog.records if r.getMessage().startswith("exact solve:")]
        assert f"lps {stats['lps']}," in record.getMessage()
        assert f"rejected {stats['rejected']}," in record.getMessage()
        assert stats["warm"] + stats["rejected"] <= stats["lps"]


def two_unit_model(*blocks, objective):
    """Binary columns v1 and v2, continuous p1 and p2, and the given rows."""
    return MilpModel(
        ColumnIndex.from_keys([("v", 1, 1), ("v", 2, 1), ("p", 1, 1), ("p", 2, 1)]),
        RowMatrix.from_blocks(list(blocks)), objective)


#: p1 + p2 >= 1 on every pattern
DEMAND = RowBlock("demand", [1], ">=", 1.0, [([0, 0], [2, 3], [1.0, 1.0])])


def desk_slot_r00_seed5():
    """exact-desk seed 5's r00-2x5, on whose optimum a unit is off twice."""
    instance = random_instance(np.random.default_rng(5), 2, 5)
    return dataclasses.replace(instance, units=tuple(
        dataclasses.replace(unit, min_uptime=2, min_downtime=1) for unit in instance.units))


class TestAllOnProbe:
    """The walk goes down from the pattern with every free bit on, so that
    pattern's LP is solved cold before any other, and only once; the answer
    is that of a full cold enumeration."""

    def probe(self, model, monkeypatch):
        """The engine's ties, its stats and each LP it solved: ``(b, start,
        result)``; and the all-on pattern with its ``b``, or None where the
        binary rows or its bounds rule it out.  Checks the ties against a
        full cold enumeration and that no LP goes uncounted."""
        calls, lp = [], solve_module.solve_dense_lp

        def spy(c, A, senses, b, start=None):
            calls.append((b.copy(), start, lp(c, A, senses, b, start=start)))
            return calls[-1][2]

        monkeypatch.setattr(solve_module, "solve_dense_lp", spy)
        engine = _ExactEngine(model, SolverConfig())
        ties, stats = engine.optimal(), dict(engine.stats)
        monkeypatch.undo()
        on = np.where(engine.fixed < 0, 1, engine.fixed)
        all_on = [(p, b) for p, _, b in walked(engine) if p.tobytes() == on.tobytes()]
        same_as_full_enumeration(model)
        assert len(calls) == stats["lps"] + stats["resolved"]
        return ties, stats, calls, (all_on[0] if all_on else None)

    def assert_probed_first(self, calls, all_on):
        _, b = all_on
        assert calls[0][0].tobytes() == b.tobytes() and calls[0][1] is None
        assert [c[0].tobytes() for c in calls].count(b.tobytes()) == 1

    @pytest.mark.parametrize("make", [fixture_instance, enumeration_instance])
    def test_all_on_wins(self, make, monkeypatch):
        ties, stats, calls, all_on = self.probe(build(make()), monkeypatch)
        self.assert_probed_first(calls, all_on)
        assert ties[0][0].tobytes() == all_on[0].tobytes()
        assert stats["resolved"] == 0

    def test_all_on_loses(self, monkeypatch):
        # the all-on optimum is 80 % above the best
        ties, stats, calls, all_on = self.probe(build(desk_slot_r00_seed5()), monkeypatch)
        self.assert_probed_first(calls, all_on)
        assert calls[0][2].status == "optimal"
        assert ties[0][0].tobytes() != all_on[0].tobytes()
        assert stats["patterns"] == stats["bound_infeasible"] + stats["dual_pruned"] + stats["lps"]

    def test_binary_row_rules_out_all_on(self, monkeypatch):
        # v1 + v2 <= 1; p1 and p2 are capped at 10 by their units' bits
        model = two_unit_model(
            RowBlock("pick", [1], "<=", 1.0, [([0, 0], [0, 1], [1.0, 1.0])]), DEMAND,
            RowBlock("cap", [1, 2], "<=", 0.0, [([0, 1], [2, 3], [1.0, 1.0]),
                                                ([0, 1], [0, 1], [-10.0, -10.0])]),
            objective={0: 3.0, 1: 1.0, 2: 1.0, 3: 2.0})
        ties, stats, calls, all_on = self.probe(model, monkeypatch)
        assert all_on is None
        assert [(tuple(p), o) for p, o, _ in ties] == [((0, 1), 3.0)]
        assert stats["patterns"] == 3

    def test_all_on_lp_is_infeasible(self, monkeypatch):
        # p1 + p2 <= 6 - 5 v1 - 5 v2: no room for demand when both are on
        model = two_unit_model(
            DEMAND, RowBlock("room", [1], "<=", 6.0, [([0] * 4, [0, 1, 2, 3], [5.0, 5.0, 1.0, 1.0])]),
            objective={0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0})
        ties, stats, calls, all_on = self.probe(model, monkeypatch)
        self.assert_probed_first(calls, all_on)
        assert calls[0][2].status == "infeasible"
        assert [(tuple(p), o) for p, o, _ in ties] == [((0, 0), 1.0)]
        assert stats["patterns"] == stats["dual_pruned"] + stats["lps"] == 4

    def test_all_on_lp_is_unbounded(self):
        # p1 earns 1 per unit and nothing caps it: the first LP, the all-on
        # pattern's, is unbounded and ends the walk; its block, all four
        # patterns, is counted whole
        model = two_unit_model(DEMAND, objective={0: 1.0, 1: 1.0, 2: -1.0, 3: 2.0})
        solution = solve_exact(model)
        assert (solution.status, solution.objective) == ("unbounded", -np.inf)
        assert solution.stats == {"patterns": 4, "bound_infeasible": 0, "dual_pruned": 0,
                                  "lps": 1, "warm": 0, "rejected": 0, "resolved": 0,
                                  "pivots": 1}
        assert enumerate_optimal_patterns(model) == []

    def test_no_free_bit(self, monkeypatch):
        # both bits fixed on: the all-on pattern is the only one
        model = two_unit_model(
            RowBlock("initial-on", [1, 2], "=", 1.0, [([0, 1], [1.0, 1.0])]), DEMAND,
            objective={0: 5.0, 1: 5.0, 2: 1.0, 3: 2.0})
        ties, stats, calls, all_on = self.probe(model, monkeypatch)
        self.assert_probed_first(calls, all_on)
        assert [(tuple(p), o) for p, o, _ in ties] == [((1, 1), 11.0)]
        assert (stats["patterns"], stats["lps"], len(calls)) == (1, 1, 1)

    def test_overflowing_all_on_is_reported_where_the_walk_reaches_it(self):
        # the all-on pattern's bound overflows: it leads the walk, so it is
        # named before any LP; its block is counted whole, and its bounds
        # rule out 10 and 01
        model = MilpModel(
            ColumnIndex.from_keys([("v", 1, 1), ("v", 1, 2), ("cu", 1, 2)]),
            RowMatrix.from_blocks([RowBlock("r", [1], "<=", 1.0,
                                            [([0, 0, 0], [0, 1, 2], [1e308, 1e308, 1.0])])]),
            {2: 1.0})
        engine = _ExactEngine(model, SolverConfig())
        with pytest.raises(NumericalFailure, match="LP bounds of pattern 11$"):
            engine.optimal()
        stats = engine.stats
        assert (stats["patterns"], stats["bound_infeasible"], stats["lps"]) == (4, 2, 0)


class TestCheckSolution:
    def test_all_zero_values_show_demand_residual(self, fixture_inst):
        model = build(fixture_inst)
        report = check_solution(model, np.zeros(model.num_columns))
        assert report.family_residuals["demand"] == pytest.approx(150.0)
        assert not report.passed

    def test_fractional_binary_reported(self, fixture_inst):
        model = build(fixture_inst)
        values = np.zeros(model.num_columns)
        values[model.column_of("v_1_1")] = 0.4
        report = check_solution(model, values)
        assert report.integrality_gap == pytest.approx(0.4)

    def test_negative_value_is_bound_violation(self, fixture_inst):
        model = build(fixture_inst)
        values = np.zeros(model.num_columns)
        values[model.column_of("p_1_1")] = -2.0
        report = check_solution(model, values)
        assert report.bound_violation == pytest.approx(2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("column", ["p_1_1", "cu_1_1"])
    def test_nan_value_fails(self, fixture_inst, column, value):
        # no row reads cu_1_1: a NaN or an infinity there passed the check
        model = build(fixture_inst)
        values = solve_exact(model).values
        values[model.column_of(column)] = value
        assert not check_solution(model, values).passed

    def test_overflowing_activity_fails(self, fixture_inst):
        # 1e308 in p_1_1 overflows the prod-cost row's activity: NumPy
        # warned on the way to the failed check
        model = build(fixture_inst)
        values = solve_exact(model).values
        values[model.column_of("p_1_1")] = 1e308
        report = check_solution(model, values)
        assert report.family_residuals["prod-cost"] == report.max_residual == np.inf
        assert not report.passed

    @pytest.mark.parametrize("values", [{}, {0: 1.0}, np.zeros(3), np.zeros((1, 18))],
                             ids=["empty-dict", "dict", "short", "two-dimensional"])
    def test_other_shapes_raise(self, fixture_inst, values):
        model = build(fixture_inst)
        assert model.num_columns == 18
        with pytest.raises(ValueError, match="18 column values"):
            check_solution(model, values)


class TestParseSolutionFile:
    def test_name_value_lines(self, fixture_inst):
        model = build(fixture_inst)
        values = parse_solution_file("v_1_1 1.0\np_1_1 100.0\n", model)
        assert values[model.column_of("v_1_1")] == 1.0
        assert values[model.column_of("p_1_1")] == 100.0
        assert values[model.column_of("p_1_2")] == 0.0

    def test_empty_file_defaults_and_warns(self, fixture_inst, caplog):
        model = build(fixture_inst)
        with caplog.at_level("WARNING", logger="ucdispatch.solve"):
            values = parse_solution_file("", model)
        assert all(v == 0.0 for v in values)
        assert len(caplog.records) == 1
        assert f"{model.num_columns} columns missing" in caplog.records[0].getMessage()

    def test_unknown_names_ignored_with_warning(self, fixture_inst, caplog):
        model = build(fixture_inst)
        with caplog.at_level("WARNING", logger="ucdispatch.solve"):
            values = parse_solution_file("bogus_1 5.0\nv_1_1 1\n", model)
        assert values[model.column_of("v_1_1")] == 1.0
        assert any("bogus_1" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("line, kind", [("bogus_{} 5.0", "unrecognized lines"),
                                            ("bogus_{}=5.0", "unknown entries")],
                             ids=["unrecognized", "unknown"])
    def test_repeated_warnings_roll_up(self, fixture_inst, caplog, line, kind):
        model = build(fixture_inst)
        text = "".join(f"{name} 0\n" for name in model.columns.names)
        text += "".join(line.format(i) + "\n" for i in range(50))
        with caplog.at_level("WARNING", logger="ucdispatch.solve"):
            parse_solution_file(text, model)
        (record,) = caplog.records
        message = record.getMessage()
        assert f"50 {kind}" in message
        assert "bogus_4" in message and "bogus_5" not in message

    def test_indexed_rows_and_equals_forms(self, fixture_inst):
        model = build(fixture_inst)
        values = parse_solution_file(
            "0 v_1_1 1 0\n1 v_1_2 1 0\np_1_1=100.5\n", model)
        assert values[model.column_of("v_1_2")] == 1.0
        assert values[model.column_of("p_1_1")] == 100.5

    def test_status_headers_are_skipped(self, fixture_inst):
        model = build(fixture_inst)
        text = ("Optimal - objective value 2700\n"
                "# comment\n* star comment\n=obj= 2700\n"
                "v_1_1 1\n")
        values = parse_solution_file(text, model)
        assert values[model.column_of("v_1_1")] == 1.0

    @pytest.mark.parametrize("line, name, first", [
        ("ru_1 1", "ru_1", "17 'ru_1 0.0'"),
        ("cu_1_1=1", "cu_1_1", "9 'cu_1_1 0.0'"),
        ("19 v_1_2 1 0", "v_1_2", "2 'v_1_2 1.0'"),
    ], ids=["name-value", "equals", "indexed"])
    def test_column_given_twice_raises(self, fixture_inst, line, name, first):
        # appended to the exact solution, ru_1 1 was read as an objective of
        # 7700 and cu_1_1=1 as one of 2701, the earlier line dropped
        model = build(fixture_inst)
        values = solve_exact(model).values
        text = "".join(f"{column} {float(values[col])!r}\n"
                       for col, column in enumerate(model.columns.names))
        message = f"column '{name}' is given twice: in line {first} and in line 19 '{line}'"
        with pytest.raises(UnparsableSolution, match=f"^{re.escape(message)}$"):
            parse_solution_file(text + line + "\n", model)

    def test_truncated_value_raises(self, fixture_inst):
        model = build(fixture_inst)
        with pytest.raises(UnparsableSolution):
            parse_solution_file("v_1_1 1.0\np_1_1\n", model)
        with pytest.raises(UnparsableSolution):
            parse_solution_file("p_1_1 12:4\n", model)


class TestSolveExternal:
    def test_fixture_agrees_with_exact(self, fixture_inst):
        model = build(fixture_inst)
        config = SolverConfig(backend="external", command_template=SHIM_TEMPLATE)
        external = solve_external(model, config)
        exact = solve_exact(model)
        assert external.status == "optimal"
        scale = 1.0 + abs(exact.objective)
        assert abs(external.objective - exact.objective) <= 1e-6 * scale

    def test_missing_binary_raises_launch_failure(self, fixture_inst):
        model = build(fixture_inst)
        config = SolverConfig(backend="external",
                              command_template="definitely-not-a-solver {model} {solution}")
        with pytest.raises(SolverLaunchFailed):
            solve_external(model, config)

    def test_no_template_raises_launch_failure(self, fixture_inst):
        model = build(fixture_inst)
        with pytest.raises(SolverLaunchFailed):
            solve_external(model, SolverConfig(backend="external"))

    def test_blank_template_raises_launch_failure(self, fixture_inst):
        # subprocess.run([]) raised IndexError
        model = build(fixture_inst)
        with pytest.raises(SolverLaunchFailed, match="no solver command"):
            solve_external(model, SolverConfig(backend="external", command_template=" \t "))

    def test_nonzero_exit_raises(self, fixture_inst):
        model = build(fixture_inst)
        template = f"{sys.executable} -c import~sys;sys.exit(3)"
        config = SolverConfig(backend="external",
                              command_template=template.replace("~", " "))
        with pytest.raises(SolverNonZeroExit):
            solve_external(model, config)

    def test_truncated_solution_file_raises(self, fixture_inst):
        model = build(fixture_inst)
        script = "import sys; open(sys.argv[2], 'w').write('v_1_1\\n')"
        config = SolverConfig(
            backend="external",
            command_template=f'{sys.executable} -c "{script}" {{model}} {{solution}}')
        with pytest.raises(UnparsableSolution):
            solve_external(model, config)

    def test_non_utf8_solution_file_raises(self, fixture_inst):
        model = build(fixture_inst)
        script = "import sys; open(sys.argv[2], 'wb').write(bytes([118, 32, 233, 10]))"
        config = SolverConfig(
            backend="external",
            command_template=f'{sys.executable} -c "{script}" {{model}} {{solution}}')
        with pytest.raises(UnparsableSolution):
            solve_external(model, config)

    def test_wrong_solution_fails_residual_check(self, fixture_inst):
        model = build(fixture_inst)
        script = "import sys; open(sys.argv[2], 'w').write('v_1_1 1\\n')"
        config = SolverConfig(
            backend="external",
            command_template=f'{sys.executable} -c "{script}" {{model}} {{solution}}')
        with pytest.raises(ResidualCheckFailed):
            solve_external(model, config)


def test_random_instances_agree_with_shim():
    rng = np.random.default_rng(11)
    for index in range(6):
        instance = random_instance(rng, int(rng.integers(1, 3)), 3,
                                   with_storage=index % 3 == 0)
        model = build(instance)
        exact = solve_exact(model)
        assert exact.status == "optimal"
        config = SolverConfig(backend="external", command_template=SHIM_TEMPLATE)
        external = solve_external(model, config)
        scale = 1.0 + abs(exact.objective)
        assert abs(external.objective - exact.objective) <= 1e-6 * scale


@pytest.mark.parametrize("T", [8, 10, 12])
def test_sixteen_to_twenty_binaries_agree_with_shim(T):
    # two units over 8, 10 and 12 periods: 16, 20 and 24 binaries, the
    # budget; the last two spread over 256 and 1,024 blocks of
    # PATTERN_BLOCK patterns
    model = build(random_instance(np.random.default_rng(7), 2, T))
    assert len(model.binary_columns()) == 2 * T
    exact = solve_exact(model)
    status, objective, _ = mipshim.solve_problem(mipshim.parse_mps(write_mps(model)))
    assert exact.status == status == "optimal"
    assert abs(objective - exact.objective) <= 1e-6 * abs(exact.objective)


def test_shim_solves_to_optimality():
    # the tenth of a seeded run of draws: two units over three periods, one
    # of them storage, where HiGHS's default 1e-4 relative MIP gap stops
    # 9.9e-5 above the optimum (27197.45 against 27194.76)
    rng = np.random.default_rng(12)
    for n_units, T, storage in [(2, 3, False), (2, 3, True), (1, 6, False),
                                (2, 4, True), (3, 2, False), (1, 6, True),
                                (2, 4, False), (1, 8, True), (1, 8, False),
                                (2, 3, True)]:
        instance = random_instance(rng, n_units, T, with_storage=storage)
    units = tuple(u if u.is_storage else dataclasses.replace(
        u, min_uptime=2, min_downtime=1, initial_uptime=0, initial_downtime=0)
        for u in instance.units)
    model = build(dataclasses.replace(instance, units=units))
    exact = solve_exact(model)
    status, objective, _ = mipshim.solve_problem(mipshim.parse_mps(write_mps(model)))
    assert status == "optimal"
    assert abs(objective - exact.objective) <= 1e-6 * max(1.0, abs(exact.objective))
