"""Price series, corrected maximal production, CSV output, balances."""

import numpy as np
import pytest

from helpers import fixture_instance, make_instance, make_unit, random_instance
from ucdispatch.instance import StartupCostCurve
from ucdispatch.model import build_model
from ucdispatch.report import (
    build_report,
    cost_breakdown,
    demand_residuals,
    exact_max_possible,
    price_series,
    storage_residuals,
    write_reports,
)
from ucdispatch.solve import Solution, solve_exact
from ucdispatch.thinning import thin_all


def solved(instance):
    model = build_model(instance, thin_all(instance))
    solution = solve_exact(model)
    assert solution.status == "optimal"
    return model, solution


class TestPriceSeries:
    def test_maximum_marginal_cost_of_committed_units(self):
        instance = make_instance(
            [make_unit(1, p_min=0.0, var_cost=20.0, fixed_cost=0.0),
             make_unit(2, p_min=0.0, var_cost=35.0, fixed_cost=5.0)],
            demand=(250.0,))
        model, solution = solved(instance)
        assert solution.values[model.column_of("v_1_1")] == 1.0
        assert solution.values[model.column_of("v_2_1")] == 1.0
        assert price_series(instance, model, solution) == [35.0]

    def test_fixture_price(self, fixture_inst):
        model, solution = solved(fixture_inst)
        assert price_series(fixture_inst, model, solution) == [10.0, 10.0]

    def test_no_committed_unit_yields_none(self):
        instance = make_instance([make_unit()], demand=(0.0, 0.0))
        model, solution = solved(instance)
        assert price_series(instance, model, solution) == [None, None]

    def test_price_scales_with_cost_inputs(self, fixture_inst):
        model, solution = solved(fixture_inst)
        base = price_series(fixture_inst, model, solution)
        scaled_instance = fixture_inst.with_scaled_costs(3.0)
        scaled_model, scaled_solution = solved(scaled_instance)
        scaled = price_series(scaled_instance, scaled_model, scaled_solution)
        assert scaled == [3.0 * p for p in base]

    def test_fuel_dependent_marginal_cost(self):
        instance = make_instance(
            [make_unit(1, p_min=0.0, var_fuel=2.0, var_cost=3.0)],
            demand=(100.0, 100.0),
            fuel_cost={"gas": (10.0, 20.0)})
        model, solution = solved(instance)
        assert price_series(instance, model, solution) == [23.0, 43.0]


class TestExactMaxPossible:
    def test_all_off_is_zero(self, fixture_inst):
        model = build_model(fixture_inst, thin_all(fixture_inst))
        zero = Solution(np.zeros(model.num_columns), 0.0, "optimal", "builtin-exact", 0.0)
        result = exact_max_possible(fixture_inst, model, zero)
        assert result[1] == [0.0, 0.0]

    def test_fixture_reaches_p_max(self, fixture_inst):
        model, solution = solved(fixture_inst)
        assert exact_max_possible(fixture_inst, model, solution) == {1: [200.0, 200.0]}

    def test_imminent_shutdown_caps_at_shutdown_ramp(self):
        instance = make_instance(
            [make_unit(p_min=0.0, shutdown_ramp=120.0, startup_ramp=200.0,
                       fixed_cost=500.0)],
            demand=(100.0, 0.0))
        model, solution = solved(instance)
        v = [solution.values[model.column_of(f"v_1_{k}")] for k in (1, 2)]
        assert v == [1.0, 0.0]
        result = exact_max_possible(instance, model, solution)
        assert result[1][0] == pytest.approx(120.0)  # capped by SD before k=2
        assert result[1][1] == 0.0

    def test_ramp_up_caps_after_low_production(self):
        # slow unit: in k=2 it cannot exceed p(1) + L*RU while online
        instance = make_instance(
            [make_unit(p_min=0.0, ramp_up=30.0, startup_ramp=100.0,
                       shutdown_ramp=200.0)],
            demand=(40.0, 40.0))
        model, solution = solved(instance)
        result = exact_max_possible(instance, model, solution)
        p1 = solution.values[model.column_of("p_1_1")]
        assert result[1][1] == pytest.approx(p1 + 30.0)

    def test_never_below_solved_production(self, storage_inst):
        model, solution = solved(storage_inst)
        result = exact_max_possible(storage_inst, model, solution)
        for u in storage_inst.units:
            for k in range(1, storage_inst.num_periods + 1):
                p = solution.values[model.column_of(f"p_{u.unit_id}_{k}")]
                assert result[u.unit_id][k - 1] >= p - 1e-6
                assert result[u.unit_id][k - 1] <= u.p_max + 1e-9


class TestBalances:
    def test_demand_residuals_tiny(self, storage_inst):
        model, solution = solved(storage_inst)
        assert max(abs(r) for r in demand_residuals(storage_inst, model, solution)) \
            <= 1e-6

    def test_storage_telescoping(self, storage_inst):
        model, solution = solved(storage_inst)
        residuals = storage_residuals(storage_inst, model, solution)
        assert set(residuals) == {2}
        assert abs(residuals[2]) <= 1e-6

    def test_cost_breakdown_reconciles_with_objective(self, storage_inst):
        model, solution = solved(storage_inst)
        breakdown = cost_breakdown(storage_inst, model, solution)
        scale = 1.0 + abs(solution.objective)
        assert abs(sum(breakdown.values()) - solution.objective) <= 1e-6 * scale

    def test_random_instances_balance(self):
        rng = np.random.default_rng(23)
        for index in range(5):
            instance = random_instance(rng, 2, 3, with_storage=index % 2 == 0)
            model, solution = solved(instance)
            assert max(abs(r) for r in demand_residuals(instance, model, solution)) \
                <= 1e-6
            for residual in storage_residuals(instance, model, solution).values():
                assert abs(residual) <= 1e-6


class TestWriteReports:
    def test_file_set_and_shapes(self, tmp_path, fixture_inst):
        model, solution = solved(fixture_inst)
        report = build_report(fixture_inst, model, solution)
        paths = write_reports(fixture_inst, model, solution, report, tmp_path)
        names = {p.name for p in paths}
        assert names == {"v.csv", "p.csv", "p_max.csv", "s.csv", "c.csv",
                         "cp.csv", "cu.csv", "cd.csv", "price.csv",
                         "slacks.csv", "summary.csv"}
        v_lines = (tmp_path / "v.csv").read_text().splitlines()
        assert v_lines[0] == "k,timestamp,1"
        assert len(v_lines) == 1 + fixture_inst.num_periods

    def test_timestamps_follow_period_grid(self, tmp_path):
        instance = make_instance([make_unit()], demand=(100.0,) * 3, length=2.0)
        model, solution = solved(instance)
        report = build_report(instance, model, solution)
        write_reports(instance, model, solution, report, tmp_path)
        rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
        stamps = [row.split(",")[1] for row in rows]
        assert stamps == ["2009-05-11 00:00:00", "2009-05-11 02:00:00",
                          "2009-05-11 04:00:00"]

    def test_rerun_is_byte_identical(self, tmp_path, storage_inst):
        model, solution = solved(storage_inst)
        report = build_report(storage_inst, model, solution)
        write_reports(storage_inst, model, solution, report, tmp_path / "a")
        write_reports(storage_inst, model, solution, report, tmp_path / "b")
        for name in ("v.csv", "p.csv", "p_max.csv", "summary.csv", "price.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_price_empty_cell_for_uncommitted_period(self, tmp_path):
        instance = make_instance([make_unit()], demand=(0.0, 100.0))
        model, solution = solved(instance)
        report = build_report(instance, model, solution)
        write_reports(instance, model, solution, report, tmp_path)
        rows = (tmp_path / "price.csv").read_text().splitlines()
        assert rows[1].endswith(",")  # period 1: nothing committed
        assert rows[2].endswith(",10")

    def test_summary_contents(self, tmp_path, fixture_inst):
        model, solution = solved(fixture_inst)
        report = build_report(fixture_inst, model, solution)
        write_reports(fixture_inst, model, solution, report, tmp_path)
        text = (tmp_path / "summary.csv").read_text()
        assert "production_cost,2700" in text
        assert "objective,2700" in text

    def test_p_max_file_holds_recomputed_values(self, tmp_path, fixture_inst):
        model, solution = solved(fixture_inst)
        report = build_report(fixture_inst, model, solution)
        write_reports(fixture_inst, model, solution, report, tmp_path)
        rows = (tmp_path / "p_max.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[2]) for row in rows]
        assert values == report.exact_p_max[1]
