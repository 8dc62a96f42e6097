"""MILP construction: variables, constraint families, determinism."""

import hashlib

import numpy as np
import pytest

from helpers import (
    fixture_instance,
    make_instance,
    make_unit,
    multi_unit_instance,
    random_instance,
    storage_instance,
)
import ucdispatch.model
from ucdispatch.errors import ValidationFailed
from ucdispatch.instance import StartupCostCurve
from ucdispatch.model import (
    CONSTRAINT_FAMILIES,
    KIND_ORDER,
    KIND_TOKEN,
    SENSES,
    MilpModel,
    RowBlock,
    RowMatrix,
    build_model,
    model_stats,
)
from ucdispatch.report import build_report, write_reports
from ucdispatch.solve import check_solution, solve_exact
from ucdispatch.thinning import thin_all
from ucdispatch.writers import write_lp, write_mps


def test_fixture_counts_match_hand_enumeration(fixture_inst):
    model = build_model(fixture_inst, thin_all(fixture_inst))
    stats = model_stats(model)
    assert stats["variables"] == {
        "v": 2, "p": 2, "p_max": 2, "cp": 2, "cu": 2, "cd": 2,
        "p_under": 2, "p_over": 2, "r_under": 2,
    }
    assert stats["binaries"] == 2
    assert stats["total_variables"] == 18
    assert stats["families"] == {
        "bounds": 6, "ramp-up": 1, "ramp-down": 1, "shutdown-limit": 1,
        "demand": 2, "reserve": 2, "prod-cost": 2, "shutdown-cost": 1,
        "startup-cost": 1,
    }
    assert stats["total_constraints"] == sum(stats["families"].values())


def test_fixture_nonzeros_per_family(fixture_inst):
    # one unit, T = 2; SD = P_max drops v(2) from shutdown-limit and a zero
    # shutdown cost drops both v terms of shutdown-cost
    model = build_model(fixture_inst, thin_all(fixture_inst))
    nonzeros = model_stats(model)["nonzeros"]
    assert nonzeros == {
        "bounds": 12, "ramp-up": 4, "ramp-down": 4, "shutdown-limit": 2,
        "demand": 6, "reserve": 6, "prod-cost": 6, "shutdown-cost": 1,
        "startup-cost": 3,
    }
    assert sum(nonzeros.values()) == len(model.rows.data)


def test_storage_unit_gets_storage_variables_and_families(storage_inst):
    model = build_model(storage_inst, thin_all(storage_inst))
    stats = model_stats(model)
    T = storage_inst.num_periods
    # s and c exist for the storage unit only, for every period
    assert stats["variables"]["s"] == T
    assert stats["variables"]["c"] == T
    assert stats["families"]["storage-cap"] == T
    assert stats["families"]["consumption-cap"] == T
    assert stats["families"]["storage-balance"] == T - 1
    assert stats["families"]["storage-initial"] == 1
    assert stats["families"]["storage-final"] == 1
    # consumption bound: c <= -P_min = 80
    cap = [c for c in model.constraints if c.family == "consumption-cap"][0]
    assert cap.sense == "<="
    assert cap.rhs == 80.0


def test_validation_failure_blocks_build():
    bad = make_instance([make_unit(p_min=300.0, p_max=200.0,
                                   startup_ramp=400.0, shutdown_ramp=400.0)],
                        demand=(10.0, 10.0))
    with pytest.raises(ValidationFailed):
        build_model(bad)


def test_empty_unit_set():
    instance = make_instance([], demand=(50.0, 60.0, 70.0))
    model = build_model(instance, {})
    stats = model_stats(model)
    assert stats["variables"] == {"p_under": 3, "p_over": 3, "r_under": 3}
    assert stats["binaries"] == 0
    # unit-indexed families are all absent; the softened system balance stays
    assert set(stats["families"]) == {"demand", "reserve"}
    assert stats["families"]["demand"] == 3
    assert stats["families"]["reserve"] == 3


def test_startup_family_counts_thinned_groups():
    T = 10
    curve = StartupCostCurve(1, {t: 100.0 + 10.0 * t for t in range(1, T + 1)})
    instance = make_instance([make_unit()], demand=(100.0,) * T,
                             curves={1: curve})
    thinned = thin_all(instance, 0.1)
    starts = thinned[1].group_starts()
    assert len(starts) == 3  # sanity for this tolerance
    expected = sum(sum(1 for t in starts if t <= k - 1) for k in range(1, T + 1))
    model = build_model(instance, thinned)
    assert model_stats(model)["families"]["startup-cost"] == expected


def test_full_curve_startup_count_is_quadratic():
    T = 8
    curve = StartupCostCurve(1, {t: float(t) * 50.0 for t in range(1, T + 1)})
    instance = make_instance([make_unit()], demand=(100.0,) * T,
                             curves={1: curve})
    thinned = thin_all(instance, 0.0)  # identity thinning: every t is a group
    model = build_model(instance, thinned)
    assert model_stats(model)["families"]["startup-cost"] == \
        sum(k - 1 for k in range(1, T + 1))


def test_initial_state_fixing_rows():
    instance = make_instance(
        [make_unit(1, initial_uptime=2, min_uptime=3),
         make_unit(2, initial_downtime=1, min_downtime=2)],
        demand=(100.0,) * 5)
    model = build_model(instance, thin_all(instance))
    names = [c.name for c in model.constraints]
    assert "initial-on[1,1]" in names and "initial-on[1,2]" in names
    assert "initial-off[2,1]" in names
    on_row = next(c for c in model.constraints if c.name == "initial-on[1,1]")
    assert on_row.sense == "=" and on_row.rhs == 1.0
    off_row = next(c for c in model.constraints if c.name == "initial-off[2,1]")
    assert off_row.sense == "=" and off_row.rhs == 0.0


def test_min_up_down_index_ranges():
    # UT=3, IUT=1, T=6: k runs from IUT+2=3 to 6, i in 1..min(2, 6-k)
    instance = make_instance([make_unit(min_uptime=3, min_downtime=2,
                                        initial_uptime=1)],
                             demand=(100.0,) * 6)
    model = build_model(instance, thin_all(instance))
    up_rows = [c.name for c in model.constraints if c.family == "min-up"]
    assert up_rows == [
        "min-up[1,3,1]", "min-up[1,3,2]",
        "min-up[1,4,1]", "min-up[1,4,2]",
        "min-up[1,5,1]",
    ]
    down_rows = [c.name for c in model.constraints if c.family == "min-down"]
    # DT=2, IDT=0: k from 2 to 6, i in 1..min(1, 6-k)
    assert down_rows == [
        "min-down[1,2,1]", "min-down[1,3,1]", "min-down[1,4,1]",
        "min-down[1,5,1]",
    ]


def test_min_down_row_shape():
    instance = make_instance([make_unit(min_downtime=2)], demand=(100.0,) * 3)
    model = build_model(instance, thin_all(instance))
    row = next(c for c in model.constraints if c.name == "min-down[1,2,1]")
    v1 = model.column_of("v_1_1")
    v2 = model.column_of("v_1_2")
    v3 = model.column_of("v_1_3")
    # v(k+i) + v(k-1) - v(k) <= 1: a shutdown in k forces v(k+i) = 0
    assert row.sense == "<=" and row.rhs == 1.0
    assert row.coefficients == {v3: 1.0, v1: 1.0, v2: -1.0}


def test_ramp_tightening_uses_clamped_minimum_production():
    # storage unit: P_min < 0 must enter the tightening constants as 0
    instance = storage_instance()
    model = build_model(instance, thin_all(instance))
    row = next(c for c in model.constraints if c.name == "ramp-up[2,2]")
    u = instance.unit(2)
    rtu = min(u.startup_ramp, 0.0 + instance.general.period_length * u.ramp_up)
    v2 = model.column_of("v_2_2")
    assert row.coefficients[v2] == -rtu
    assert row.rhs == u.startup_ramp - rtu


def test_objective_coefficients(fixture_inst):
    model = build_model(fixture_inst, thin_all(fixture_inst))
    g = fixture_inst.general
    for kind, expected in [("cp", 1.0), ("cu", 1.0), ("cd", 1.0)]:
        for k in (1, 2):
            col = model.column_of(f"{kind}_1_{k}")
            assert model.objective[col] == expected
    for token, penalty in [("pu", g.under_prod_penalty),
                           ("ru", g.under_reserve_penalty),
                           ("po", g.over_prod_penalty)]:
        for k in (1, 2):
            assert model.objective[model.column_of(f"{token}_{k}")] == \
                penalty * g.period_length
    covered = set(model.objective)
    for col, (kind, _, _) in enumerate(model.columns.keys):
        if kind in ("v", "p", "p_max", "s", "c"):
            assert col not in covered


def test_no_explicit_zero_coefficients(storage_inst):
    model = build_model(storage_inst, thin_all(storage_inst))
    for con in model.constraints:
        assert con.coefficients, con.name
        assert all(v != 0.0 for v in con.coefficients.values())


def test_family_and_kind_completeness(storage_inst):
    instance = make_instance(
        [make_unit(1, initial_uptime=1, min_uptime=2, min_downtime=2,
                   shutdown_cost=25.0),
         storage_inst.unit(2)],
        demand=(100.0, 150.0, 120.0, 90.0),
        reserve=(5.0,) * 4,
        curves={1: StartupCostCurve(1, {1: 100.0, 2: 170.0, 3: 300.0})},
    )
    model = build_model(instance, thin_all(instance, 0.0))
    stats = model_stats(model)
    assert set(stats["families"]) == set(CONSTRAINT_FAMILIES) - {"initial-off"}
    assert set(stats["variables"]) == set(KIND_ORDER)


def test_deterministic_serialization(storage_inst):
    first = write_mps(build_model(storage_inst, thin_all(storage_inst)))
    second = write_mps(build_model(storage_inst, thin_all(storage_inst)))
    assert first == second


def test_variable_ordering_is_kind_unit_period(storage_inst):
    model = build_model(storage_inst, thin_all(storage_inst))
    seen = model.columns.keys
    kind_rank = {kind: i for i, kind in enumerate(KIND_ORDER)}
    ranked = [(kind_rank[k], u if u is not None else -1, p) for k, u, p in seen]
    assert ranked == sorted(ranked)
    assert len(set(seen)) == len(seen) == model.num_columns


def test_row_matrix_and_column_index_match_the_model(storage_inst):
    # the constraints view rebuilds the very rows the builder handed over
    for make in (fixture_instance, storage_instance, multi_unit_instance):
        instance = make()
        model = build_model(instance, thin_all(instance))
        rows = model.rows
        assert len(rows.rhs) == len(model.constraints)
        for i, con in enumerate(model.constraints):
            assert list(rows.row(i)) == sorted(con.coefficients.items())
            assert SENSES[rows.sense[i]] == con.sense
            assert rows.rhs[i] == con.rhs
            assert rows.families[rows.family[i]] == con.family

    model = build_model(storage_inst, thin_all(storage_inst))
    rows = model.rows
    # row activities against a plain loop; only the summation order differs
    x = np.random.default_rng(3).uniform(-2.0, 2.0, model.num_columns)
    expected = [sum(coef * x[col] for col, coef in con.coefficients.items())
                for con in model.constraints]
    np.testing.assert_allclose(rows.activities(x), expected, rtol=1e-12, atol=1e-9)

    columns = model.columns
    assert len(columns.names) == len(columns.keys) == model.num_columns
    for col, (key, name) in enumerate(zip(columns.keys, columns.names)):
        kind, unit_id, period = key
        token = KIND_TOKEN[kind]
        assert name == (f"{token}_{period}" if unit_id is None
                        else f"{token}_{unit_id}_{period}")
        assert columns.by_name[name] == columns.by_key[key] == col
    assert model.binary_columns() == [col for col, (kind, _, _)
                                      in enumerate(columns.keys) if kind == "v"]


def test_from_blocks_drops_zeros_and_sorts_columns():
    rows = RowMatrix.from_blocks([
        RowBlock("empty", [], "<=", 0.0, []),
        RowBlock("a", [1], ">=", 3.0,
                 [([0, 0, 0], [4, 1, 0], [2.0, 0.0, -1.0]), ([2], -0.0)]),
        RowBlock("b", [1], "=", 0.0, []),
        RowBlock("a", [2], "<=", -1.0, [([3], 1.5), ([2], 0.5)]),
    ])
    assert rows.indptr.tolist() == [0, 2, 2, 4]
    assert rows.indices.tolist() == [0, 4, 2, 3]
    assert rows.data.tolist() == [-1.0, 2.0, 0.5, 1.5]
    assert [SENSES[code] for code in rows.sense] == [">=", "=", "<="]
    assert rows.rhs.tolist() == [3.0, 0.0, -1.0]
    assert rows.families == ("a", "b") and rows.family.tolist() == [0, 1, 0]
    assert rows.names == ("a[1]", "b[1]", "a[2]")
    assert [a.dtype for a in (rows.indptr, rows.indices, rows.data, rows.sense,
                              rows.rhs, rows.family)] == [
        np.int64, np.int32, np.float64, np.int8, np.float64, np.int64]


def test_build_makes_no_linear_constraint(monkeypatch):
    def no_linear_constraint(*args, **kwargs):
        raise AssertionError("build_model made a LinearConstraint")

    monkeypatch.setattr(ucdispatch.model, "LinearConstraint", no_linear_constraint)
    for make in (fixture_instance, storage_instance, multi_unit_instance):
        instance = make()
        assert len(build_model(instance, thin_all(instance)).rows.rhs)


@pytest.mark.parametrize("make", [fixture_instance, storage_instance])
def test_pipeline_reads_only_the_row_matrix(make, tmp_path, monkeypatch):
    instance = make()
    model = build_model(instance)
    assert set(vars(model)) == {"columns", "rows", "objective"}
    first = model.constraints
    assert first == model.constraints and first is not model.constraints

    def no_view(self):
        raise AssertionError("MilpModel.constraints was read")

    monkeypatch.setattr(MilpModel, "constraints", property(no_view))
    write_mps(model)
    write_lp(model)
    model_stats(model)
    solution = solve_exact(model)
    assert check_solution(model, solution.values).passed
    report = build_report(instance, model, solution)
    assert write_reports(instance, model, solution, report, tmp_path)


#: instances whose row matrices and objectives are pinned together below; the
#: writers' golden hashes cover neither ramp_tightening=False, nor T = 1, nor
#: the empty unit set
PINNED_INSTANCES = (
    fixture_instance, storage_instance, multi_unit_instance,
    lambda: random_instance(np.random.default_rng(11), 4, 48),
    lambda: make_instance([], demand=(50.0, 60.0, 70.0)),
    lambda: random_instance(np.random.default_rng(0), 2, 1, with_storage=True),
    # both draws hold units with initial up- and with initial down-states
    lambda: random_instance(np.random.default_rng(0), 4, 9, with_storage=True),
    lambda: random_instance(np.random.default_rng(1), 4, 9, with_storage=True),
)
PINNED_DIGEST = "ee531f03aef68b4b92a7405114673f1188c7effd08e101ce9bf9bd600347b7af"


def pinned_digest() -> str:
    digest = hashlib.sha256()
    for make in PINNED_INSTANCES:
        instance = make()
        for tightening in (True, False):
            model = build_model(instance, thin_all(instance),
                                ramp_tightening=tightening)
            rows = model.rows
            for field in ("indptr", "indices", "data", "sense", "rhs", "family"):
                array = getattr(rows, field)
                digest.update(array.dtype.str.encode())
                digest.update(array.tobytes())
            digest.update(repr((rows.families, rows.names,
                                sorted(model.objective.items()))).encode())
    return digest.hexdigest()


def test_row_matrix_is_pinned():
    assert pinned_digest() == PINNED_DIGEST
