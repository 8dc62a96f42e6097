"""Built-in exact solver, solution parsing/checking, external bridge."""

import dataclasses
import sys

import numpy as np
import pytest

from conftest import SHIM_TEMPLATE
from helpers import fixture_instance, make_instance, make_unit, random_instance
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
from ucdispatch.model import ColumnIndex, MilpModel, RowMatrix, build_model
from ucdispatch.solve import (
    SolverConfig,
    check_solution,
    enumerate_optimal_patterns,
    parse_solution_file,
    solve_exact,
    solve_external,
    solve_lp_relaxation,
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
            RowMatrix.from_rows([("r[1]", {0: 1e308, 1: 1e308, 2: 1.0}, "<=", 1.0)]),
            {2: 1.0})
        with pytest.raises(NumericalFailure, match="overflow"):
            solve_exact(model)

    def test_every_source_gives_one_value_per_column(self, fixture_inst):
        model = build(fixture_inst)
        config = SolverConfig(backend="external", command_template=SHIM_TEMPLATE)
        for solution in (solve_exact(model), solve_lp_relaxation(model),
                         solve_external(model, config)):
            assert isinstance(solution.values, np.ndarray)
            assert solution.values.shape == (model.num_columns,)
            assert type(solution.objective) is float

    def test_lp_relaxation_bounds_milp(self, fixture_inst, storage_inst):
        for instance in (fixture_inst, storage_inst):
            model = build(instance)
            relaxed = solve_lp_relaxation(model)
            exact = solve_exact(model)
            assert relaxed.status == "optimal"
            assert relaxed.objective <= exact.objective + 1e-9

    def test_lp_relaxation_off_its_rows_is_a_numerical_failure(self):
        # the simplex stops "optimal" at 4.86e6 with prod-cost[1,10] broken
        # by 2.5e3; the MIP optimum is 30,400 and the relaxation 30,237.85
        T = 10
        instance = make_instance(
            [make_unit(1, shutdown_cost=40.0)],
            demand=tuple(90.0 + 12.0 * k for k in range(T)),
            reserve=(5.0,) * T,
            curves={1: StartupCostCurve(1, {t: 150.0 + 40.0 * t for t in range(1, 7)})})
        with pytest.raises(NumericalFailure, match="violates prod-cost by"):
            solve_lp_relaxation(build(instance))


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

    def test_nan_value_fails(self, fixture_inst):
        model = build(fixture_inst)
        values = solve_exact(model).values
        values[model.column_of("p_1_1")] = float("nan")
        assert not check_solution(model, values).passed

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
