"""Acceptance suite: one test per criterion, a PASS line printed on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.

 1. Thinning minimality on 100 random monotone curves, per-point error bound,
    under one second.
 2. 71-point surrogate curve (70% fixed / 30% saturating-exponential) thins
    to at most 12 oracle-minimal groups at 5% tolerance.
 3. Built-in exact solver: hand-derived two-period optimum (2700), and
    objective agreement with an external MILP solver on 20 random instances
    within 1e-6 relative, under 60 seconds total.
 4. Softened demand/reserve never leaves an instance infeasible, and the
    slack variables activate wherever capacity falls short.
 5. Demand balance and storage telescoping hold on every produced solution
    to 1e-6.
 6. Dropping the ramp-constraint tightening terms leaves optima unchanged
    to 1e-9 relative.
 7. Scaling all cost inputs by alpha scales optima by exactly alpha (1e-9
    relative) and preserves the set of optimal commitment patterns.
 8. Model emission is byte-deterministic and MPS/LP routes agree through the
    external solver within 1e-6.
 9. Every violation code of the input-data catalog has a fixture triggering
    exactly that code.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import SHIM_TEMPLATE
from helpers import (
    fixture_instance,
    make_instance,
    make_unit,
    random_instance,
    random_monotone_curve,
    storage_instance,
    surrogate_startup_curve,
)
from ucdispatch.instance import CATALOG_CODES, StartupCostCurve, validate
from ucdispatch.model import build_model
from ucdispatch.report import demand_residuals, storage_residuals
from ucdispatch.solve import (
    SolverConfig,
    check_solution,
    enumerate_optimal_patterns,
    parse_solution_file,
    solve_exact,
    solve_external,
)
from ucdispatch.thinning import min_groups_oracle, thin_all, thin_curve
from ucdispatch.writers import write_lp, write_mps

EXTERNAL = SolverConfig(backend="external", command_template=SHIM_TEMPLATE)


def _report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def _solve_builtin(instance):
    model = build_model(instance, thin_all(instance))
    solution = solve_exact(model)
    return model, solution


def test_criterion_1_thinning_minimality_and_error_bound():
    rng = np.random.default_rng(314)
    tolerances = (0.0, 0.01, 0.05, 0.2)
    started = time.perf_counter()
    for index in range(100):
        curve = random_monotone_curve(rng, int(rng.integers(1, 201)))
        tol = tolerances[index % len(tolerances)]
        thinned = thin_curve(curve, tol)
        assert len(thinned.steps) == min_groups_oracle(curve, tol)
        values = curve.prefix_values()
        for start, end in thinned.group_extents.items():
            step = thinned.steps[start]
            for t in range(start, end + 1):
                if values[t - 1] > 0.0:
                    assert abs(step - values[t - 1]) / values[t - 1] <= tol + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"thinning acceptance took {elapsed:.2f}s"
    _report(1, f"100 curves greedy == oracle, error <= tol, {elapsed:.2f}s")


def test_criterion_2_surrogate_curve_magnitude():
    curve = surrogate_startup_curve()
    thinned = thin_curve(curve, 0.05)
    groups = len(thinned.steps)
    assert groups <= 12
    assert groups == min_groups_oracle(curve, 0.05)
    _report(2, f"71-point surrogate thinned to {groups} oracle-minimal groups")


def test_criterion_3_oracle_solve_correctness():
    started = time.perf_counter()
    instance = fixture_instance()
    model, solution = _solve_builtin(instance)
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(2700.0, abs=1e-6)
    assert solution.values[model.column_of("v_1_1")] == 1.0
    assert solution.values[model.column_of("v_1_2")] == 1.0
    assert solution.values[model.column_of("p_1_1")] == pytest.approx(100.0)
    assert solution.values[model.column_of("p_1_2")] == pytest.approx(150.0)

    rng = np.random.default_rng(2024)
    sizes = [(1, 4), (2, 3), (1, 6), (2, 4), (3, 3), (2, 5), (1, 8), (3, 4),
             (2, 6), (1, 12), (2, 3), (1, 5), (3, 3), (2, 4), (1, 7), (2, 5),
             (3, 4), (1, 10), (2, 6), (1, 4)]
    for index, (n_units, T) in enumerate(sizes):
        assert n_units * T <= 12
        instance = random_instance(rng, n_units, T,
                                   with_storage=index % 4 == 0)
        model = build_model(instance, thin_all(instance))
        exact = solve_exact(model)
        external = solve_external(model, EXTERNAL)
        assert exact.status == "optimal" and external.status == "optimal"
        scale = 1.0 + abs(exact.objective)
        assert abs(exact.objective - external.objective) <= 1e-6 * scale, \
            f"instance {index}: {exact.objective} vs {external.objective}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"fixture optimum 2700; 20/20 oracle agreements, {elapsed:.1f}s")


def test_criterion_4_softening_guarantees_feasibility():
    rng = np.random.default_rng(99)
    shortfall_instances = 0
    for index in range(10):
        n_units = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        instance = random_instance(rng, n_units, min(T, 12 // n_units),
                                   tight_capacity=True)
        total_p_max = sum(u.p_max for u in instance.units)
        short = [k for k in range(1, instance.num_periods + 1)
                 if total_p_max < instance.periods.demand[k - 1]
                 + instance.periods.reserve[k - 1]]
        if short:
            shortfall_instances += 1
        model, solution = _solve_builtin(instance)
        assert solution.status == "optimal", "softening must prevent infeasibility"
        for k in short:
            demand_k = instance.periods.demand[k - 1]
            reserve_k = instance.periods.reserve[k - 1]
            pu = solution.values[model.column_of(f"pu_{k}")]
            ru = solution.values[model.column_of(f"ru_{k}")]
            # production fits under total capacity, so the slacks must carry
            # at least the overall shortfall (and p_under alone the demand gap)
            assert pu + ru >= demand_k + reserve_k - total_p_max - 1e-6
            if demand_k > total_p_max:
                assert pu >= demand_k - total_p_max - 1e-6
                assert pu > 0.0
    assert shortfall_instances >= 7  # the generator must actually stress this
    _report(4, f"10/10 optimal, slacks cover the shortfall "
               f"({shortfall_instances} instances were short of capacity)")


def test_criterion_5_balance_invariants():
    rng = np.random.default_rng(77)
    cases = [fixture_instance(), storage_instance()]
    for index in range(8):
        cases.append(random_instance(
            rng, int(rng.integers(1, 3)), int(rng.integers(2, 5)),
            with_storage=index % 2 == 0, tight_capacity=index % 3 == 0))
    checked_storage = 0
    for instance in cases:
        model, solution = _solve_builtin(instance)
        assert solution.status == "optimal"
        worst = max(abs(r) for r in demand_residuals(instance, model, solution))
        assert worst <= 1e-6
        for residual in storage_residuals(instance, model, solution).values():
            assert abs(residual) <= 1e-6
            checked_storage += 1
    assert checked_storage >= 4
    _report(5, f"demand balance and {checked_storage} storage telescopings "
               f"within 1e-6 on {len(cases)} solutions")


def test_criterion_6_tightening_term_neutrality():
    rng = np.random.default_rng(4242)
    for index in range(10):
        instance = random_instance(rng, int(rng.integers(1, 3)),
                                   int(rng.integers(2, 5)),
                                   with_storage=index % 3 == 0)
        thinned = thin_all(instance)
        tight = solve_exact(build_model(instance, thinned))
        loose = solve_exact(build_model(instance, thinned,
                                        ramp_tightening=False))
        assert tight.status == loose.status == "optimal"
        scale = 1.0 + abs(tight.objective)
        assert abs(tight.objective - loose.objective) <= 1e-9 * scale
    _report(6, "10/10 optima unchanged without the ramp tightening terms")


def test_criterion_7_cost_scaling_argmin_invariance():
    rng = np.random.default_rng(555)
    sizes = [(1, 3), (2, 3), (1, 5), (2, 4), (3, 2)]
    for index, (n_units, T) in enumerate(sizes):
        instance = random_instance(rng, n_units, T, with_storage=index == 2)
        base_model = build_model(instance, thin_all(instance))
        base = solve_exact(base_model)
        base_patterns = enumerate_optimal_patterns(base_model)
        for alpha in (0.5, 3.0):
            scaled_instance = instance.with_scaled_costs(alpha)
            scaled_model = build_model(scaled_instance, thin_all(scaled_instance))
            scaled = solve_exact(scaled_model)
            scale = 1.0 + abs(alpha * base.objective)
            assert abs(scaled.objective - alpha * base.objective) <= 1e-9 * scale
            assert enumerate_optimal_patterns(scaled_model) == base_patterns
    _report(7, "5 instances x alpha in {0.5, 3}: objective scales, "
               "optimal pattern sets unchanged")


def _run_shim(path):
    solution_path = str(path) + ".sol"
    proc = subprocess.run(
        [sys.executable, "-m", "ucdispatch.mipshim", str(path), solution_path],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return open(solution_path, encoding="utf-8").read()


def test_criterion_8_emission_determinism_and_cross_format(tmp_path):
    rng = np.random.default_rng(808)
    cases = [fixture_instance(), storage_instance(),
             random_instance(rng, 2, 4, with_storage=True)]
    for index, instance in enumerate(cases):
        thinned = thin_all(instance)
        model = build_model(instance, thinned)
        mps_text, lp_text = write_mps(model), write_lp(model)
        again = build_model(instance, thin_all(instance))
        assert write_mps(again) == mps_text
        assert write_lp(again) == lp_text

        mps_path = tmp_path / f"case{index}.mps"
        lp_path = tmp_path / f"case{index}.lp"
        mps_path.write_text(mps_text)
        lp_path.write_text(lp_text)
        mps_values = parse_solution_file(_run_shim(mps_path), model)
        lp_values = parse_solution_file(_run_shim(lp_path), model)
        assert check_solution(model, mps_values).passed
        assert check_solution(model, lp_values).passed
        mps_obj = model.objective_value(mps_values)
        lp_obj = model.objective_value(lp_values)
        exact = solve_exact(model)
        scale = 1.0 + abs(exact.objective)
        assert abs(mps_obj - lp_obj) <= 1e-6 * scale
        assert abs(mps_obj - exact.objective) <= 1e-6 * scale
    _report(8, "byte-identical emissions; MPS and LP optima agree with the "
               "builtin solver on 3 models")


def _catalog_fixtures():
    def unit_instance(demand=(10.0, 10.0), **overrides):
        curves = overrides.pop("curves", None)
        return make_instance([make_unit(**overrides)], demand=demand,
                             curves=curves)

    return {
        "initial-uptime-range": unit_instance(initial_uptime=3),
        "initial-downtime-range": unit_instance(initial_downtime=3),
        "simultaneous-initial-state": unit_instance(initial_uptime=1,
                                                    initial_downtime=1),
        "min-uptime-range": unit_instance(min_uptime=3),
        "min-downtime-range": unit_instance(min_downtime=0),
        "impossible-production-limits": unit_instance(
            p_min=250.0, p_max=200.0, startup_ramp=300.0, shutdown_ramp=300.0),
        "negative-ramp-rate": unit_instance(ramp_up=-1.0),
        "startup-ramp-below-minimum": unit_instance(p_min=100.0,
                                                    startup_ramp=50.0),
        "shutdown-ramp-below-minimum": unit_instance(p_min=100.0,
                                                     shutdown_ramp=50.0),
        "decreasing-startup-costs": unit_instance(
            curves={1: StartupCostCurve(1, {1: 500.0, 2: 400.0})}),
        "storage-inflow-overcapacity": unit_instance(
            storage_inflow=250.0, storage_capacity=200.0, final_storage=100.0),
        "invalid-storage-efficiency": unit_instance(storage_efficiency=1.5),
        "invalid-initial-storage-fill": unit_instance(initial_storage=50.0),
        "invalid-final-storage-fill": unit_instance(
            p_min=-50.0, storage_efficiency=1.0, final_storage=50.0),
        "final-storage-unreachable": unit_instance(
            storage_capacity=200.0, final_storage=100.0),
        "final-storage-overfull": unit_instance(
            p_max=50.0, startup_ramp=50.0, shutdown_ramp=50.0,
            storage_capacity=200.0, initial_storage=200.0, final_storage=0.0),
        "capacity-shortfall": unit_instance(demand=(500.0, 10.0)),
    }


def test_criterion_9_validation_catalog_coverage():
    fixtures = _catalog_fixtures()
    assert set(fixtures) == set(CATALOG_CODES)
    clean = validate(fixture_instance())
    assert clean.ok and len(clean) == 0
    for code, instance in fixtures.items():
        report = validate(instance)
        assert report.codes() == {code}, \
            f"{code}: got {sorted(report.codes())}"
        severity = {r.severity for r in report}
        expected = {"warning"} if code == "capacity-shortfall" else {"error"}
        assert severity == expected
    _report(9, f"{len(fixtures)} violation codes each triggered by exactly "
               f"one dedicated fixture")
