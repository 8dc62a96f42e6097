"""CLI subcommands and their exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import SHIM_TEMPLATE
from helpers import (
    fixture_instance,
    make_instance,
    make_unit,
    multi_unit_instance,
    storage_instance,
    write_instance_files,
)
from ucdispatch import cli
from ucdispatch.cli import main
from ucdispatch.instance import StartupCostCurve


def input_args(paths):
    config, units, startup, periods = paths
    return ["--config", str(config), "--units", str(units),
            "--startup", str(startup), "--periods", str(periods)]


@pytest.fixture
def broken_files(tmp_path):
    bad = make_instance(
        [make_unit(p_min=250.0, p_max=200.0, startup_ramp=300.0,
                   shutdown_ramp=300.0)],
        demand=(100.0, 100.0))
    return write_instance_files(bad, tmp_path / "bad")


class TestValidateCommand:
    def test_clean_fixture_exits_zero(self, fixture_files, capsys):
        assert main(["validate", *input_args(fixture_files)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out

    def test_violation_exits_one(self, broken_files, capsys):
        assert main(["validate", *input_args(broken_files)]) == 1
        out = capsys.readouterr().out
        assert "Impossible production limits!" in out

    def test_missing_file_exits_two(self, fixture_files, tmp_path):
        config, units, startup, periods = fixture_files
        args = ["--config", str(config), "--units", str(tmp_path / "none.csv"),
                "--startup", str(startup), "--periods", str(periods)]
        assert main(["validate", *args]) == 2

    def test_json_output(self, broken_files, capsys):
        assert main(["validate", "--json", *input_args(broken_files)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"][0]["code"] == "impossible-production-limits"

    @pytest.mark.parametrize("unit_ids, code", [
        ((1, 1), "duplicate-unit-id"),
        ((-1,), "negative-unit-id"),
    ])
    def test_bad_unit_ids_exit_one(self, tmp_path, capsys, unit_ids, code):
        instance = make_instance([make_unit(j) for j in unit_ids],
                                 demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "ids")
        assert main(["validate", "--json", *input_args(paths)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in payload["errors"]] == [code]
        out_dir = tmp_path / "results"
        assert main(["solve", "--out-dir", str(out_dir), *input_args(paths)]) == 1
        assert not out_dir.exists()

    def test_negative_ramp_rate_exits_one(self, tmp_path, capsys):
        instance = make_instance([make_unit(ramp_up=-5.0)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "ramp")
        assert main(["validate", "--json", *input_args(paths)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in payload["errors"]] == ["negative-ramp-rate"]

    def test_infinite_number_exits_two(self, tmp_path, capsys):
        instance = make_instance([make_unit(p_max=float("inf"))], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "inf")
        assert main(["validate", *input_args(paths)]) == 2
        assert "not a finite number" in capsys.readouterr().err
        out = tmp_path / "model.mps"
        assert main(["build", "--out", str(out), *input_args(paths)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["T = 1e19", "L = 1e-320"],
                             ids=["huge-T", "subnormal-L"])
    def test_extreme_config_values_exit_two(self, fixture_files, capsys, line):
        # both were tracebacks: [None] * T overflowed, and so did the period
        # index of a timestamp divided by a subnormal L
        config = fixture_files[0]
        key = line.split()[0]
        config.write_text(re.sub(rf"^{key} = .*$", line, config.read_text(), flags=re.M))
        assert main(["validate", *input_args(fixture_files)]) == 2
        assert "no rows for period(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("which", [0, 1], ids=["config", "units"])
    def test_non_utf8_input_exits_two(self, fixture_files, capsys, which):
        path = fixture_files[which]
        path.write_bytes(path.read_bytes() + b"# \xe9\n")
        assert main(["validate", *input_args(fixture_files)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "utf-8" in err

    def test_warnings_allowed(self, tmp_path, capsys):
        warn = make_instance([make_unit()], demand=(300.0, 100.0))
        paths = write_instance_files(warn, tmp_path / "warn")
        assert main(["validate", *input_args(paths)]) == 0
        assert "capacity-shortfall" in capsys.readouterr().out


class TestThinCommand:
    def test_constant_curve_single_group(self, tmp_path, capsys):
        instance = make_instance(
            [make_unit()], demand=(100.0, 100.0),
            curves={1: StartupCostCurve(1, {1: 500.0, 2: 500.0})})
        paths = write_instance_files(instance, tmp_path)
        assert main(["thin", *input_args(paths)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "unit_id,t_a,t_b,step"
        assert out[1:] == ["1,1,2,500"]

    def test_tol_zero_on_strictly_increasing_curve(self, tmp_path, capsys):
        instance = make_instance(
            [make_unit()], demand=(100.0, 100.0),
            curves={1: StartupCostCurve(1, {1: 100.0, 2: 150.0, 3: 220.0})})
        paths = write_instance_files(instance, tmp_path)
        assert main(["thin", "--tol", "0", *input_args(paths)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # header + one group per point

    def test_out_of_range_tol_is_usage_error(self, fixture_files):
        with pytest.raises(SystemExit) as info:
            main(["thin", "--tol", "1.5", *input_args(fixture_files)])
        assert info.value.code == 2

    def test_non_monotone_curve_exits_one(self, tmp_path, capsys):
        instance = make_instance(
            [make_unit()], demand=(100.0, 100.0),
            curves={1: StartupCostCurve(1, {1: 500.0, 2: 400.0})})
        paths = write_instance_files(instance, tmp_path)
        # the decreasing curve is caught by validation before thinning runs,
        # and by the thinning itself if validation were skipped
        assert main(["thin", *input_args(paths)]) == 1


class TestBuildCommand:
    def test_mps_output(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "model.mps"
        assert main(["build", "--format", "mps", "--out", str(out),
                     *input_args(fixture_files)]) == 0
        assert out.read_text().startswith("NAME")
        assert "bounds: 6" in capsys.readouterr().out

    def test_lp_output(self, fixture_files, tmp_path):
        out = tmp_path / "model.lp"
        assert main(["build", "--format", "lp", "--out", str(out),
                     *input_args(fixture_files)]) == 0
        assert out.read_text().startswith("Minimize")

    def test_invalid_instance_writes_nothing(self, broken_files, tmp_path):
        out = tmp_path / "model.mps"
        assert main(["build", "--format", "mps", "--out", str(out),
                     *input_args(broken_files)]) == 1
        assert not out.exists()

    def test_overflowing_coefficient_exits_one(self, tmp_path, capsys):
        # 2 * 1e308 overflows prod-cost's v coefficient; this wrote -inf
        instance = make_instance([make_unit(fixed_cost=1e308)],
                                 demand=(100.0, 150.0), length=2.0)
        paths = write_instance_files(instance, tmp_path / "huge")
        out = tmp_path / "model.mps"
        assert main(["build", "--out", str(out), *input_args(paths)]) == 1
        assert not out.exists()
        out_dir = tmp_path / "results"
        assert main(["solve", "--out-dir", str(out_dir), *input_args(paths)]) == 1
        assert not out_dir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("prod-cost[1,1]" in line for line in err)


class TestSolveCommand:
    def test_builtin_backend_prints_objective(self, fixture_files, tmp_path,
                                              capsys):
        out_dir = tmp_path / "results"
        assert main(["solve", "--out-dir", str(out_dir),
                     *input_args(fixture_files)]) == 0
        out = capsys.readouterr().out
        assert "objective 2700" in out
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "v.csv").exists()

    def test_run_alias(self, fixture_files, tmp_path, capsys):
        assert main(["run", "--out-dir", str(tmp_path / "r"),
                     *input_args(fixture_files)]) == 0
        assert "objective 2700" in capsys.readouterr().out

    def test_over_capacity_demand_reports_penalty(self, tmp_path, capsys):
        instance = make_instance(
            [make_unit()], demand=(300.0, 100.0),
            curves={1: StartupCostCurve(1, {1: 500.0})})
        paths = write_instance_files(instance, tmp_path)
        assert main(["solve", "--out-dir", str(tmp_path / "out"),
                     *input_args(paths)]) == 0
        out = capsys.readouterr().out
        penalty = [line for line in out.splitlines()
                   if "under_production_penalty" in line][0]
        assert float(penalty.split()[-1]) > 0.0

    def test_external_backend_without_command_is_usage_error(
            self, fixture_files, monkeypatch):
        monkeypatch.delenv("UC_SOLVER_CMD", raising=False)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--backend", "external", *input_args(fixture_files)])
        assert info.value.code == 2

    def test_external_backend_via_env(self, fixture_files, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.setenv("UC_SOLVER_CMD", SHIM_TEMPLATE)
        assert main(["solve", "--backend", "external",
                     "--out-dir", str(tmp_path / "ext"),
                     *input_args(fixture_files)]) == 0
        assert "objective 2700" in capsys.readouterr().out

    def test_binary_budget_exceeded_exits_three(self, fixture_files, tmp_path,
                                                capsys):
        assert main(["solve", "--binary-budget", "1",
                     "--out-dir", str(tmp_path / "x"),
                     *input_args(fixture_files)]) == 3
        assert "--backend external" in capsys.readouterr().err

    def test_overflowing_costs_exit_three(self, tmp_path, capsys):
        # the ratio test met a NaN and raised IndexError, a traceback
        instance = make_instance([make_unit(var_cost=1e308)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "huge")
        out_dir = tmp_path / "results"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", "--out-dir", str(out_dir), *input_args(paths)]) == 3
        assert "simplex" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_overflow_prints_one_stderr_line(self, tmp_path):
        # NumPy's overflow warnings used to come before the error line
        instance = make_instance([make_unit(var_cost=1e308)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "huge")
        result = subprocess.run(
            [sys.executable, "-m", "ucdispatch.cli", "solve",
             "--out-dir", str(tmp_path / "results"), *input_args(paths)],
            capture_output=True, text=True)
        assert result.returncode == 3
        (line,) = result.stderr.splitlines()
        assert line.startswith("solver error: simplex arithmetic failed: overflow")

    def test_json_summary(self, fixture_files, tmp_path, capsys):
        assert main(["solve", "--json", "--out-dir", str(tmp_path / "j"),
                     *input_args(fixture_files)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(2700.0)
        assert payload["cost_breakdown"]["production_cost"] == pytest.approx(2700.0)

    def test_config_override_changes_solution(self, fixture_files, tmp_path,
                                              capsys):
        # D isn't in the config, but scaling the underproduction penalty to 0
        # makes not producing free: the optimum drops to 0
        assert main(["solve", "--set", "UPP=0", "--set", "OPP=0",
                     "--out-dir", str(tmp_path / "o"),
                     *input_args(fixture_files)]) == 0
        assert "objective 0" in capsys.readouterr().out

    def test_solve_reproducible_outputs(self, fixture_files, tmp_path, capsys):
        for name in ("one", "two"):
            assert main(["solve", "--out-dir", str(tmp_path / name),
                         *input_args(fixture_files)]) == 0
        capsys.readouterr()
        for file in ("v.csv", "p.csv", "summary.csv"):
            assert (tmp_path / "one" / file).read_bytes() == \
                (tmp_path / "two" / file).read_bytes()


class TestReportCommand:
    def test_post_processes_solution_file(self, fixture_files, tmp_path,
                                          capsys):
        solution_file = tmp_path / "model.sol"
        solution_file.write_text(
            "v_1_1 1\nv_1_2 1\np_1_1 100\np_1_2 150\n"
            "pm_1_1 200\npm_1_2 200\ncp_1_1 1100\ncp_1_2 1600\n")
        assert main(["report", "--solution", str(solution_file),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 0
        assert "objective 2700" in capsys.readouterr().out
        assert (tmp_path / "rep" / "price.csv").exists()

    def test_infeasible_solution_file_exits_three(self, fixture_files,
                                                  tmp_path, capsys):
        solution_file = tmp_path / "model.sol"
        solution_file.write_text("v_1_1 1\n")  # violates demand rows
        assert main(["report", "--solution", str(solution_file),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: solution violates the model: max residual ")

    def test_non_utf8_solution_file_exits_two(self, fixture_files, tmp_path,
                                              capsys):
        solution_file = tmp_path / "model.sol"
        solution_file.write_bytes(b"v_1_1 1\n# \xe9\n")
        assert main(["report", "--solution", str(solution_file),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 2
        assert "utf-8" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_missing_solution_file_exits_two(self, fixture_files, tmp_path):
        assert main(["report", "--solution", str(tmp_path / "none.sol"),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 2


@pytest.mark.parametrize("make", [fixture_instance, storage_instance,
                                  multi_unit_instance],
                         ids=["fixture", "storage", "multi-unit"])
def test_file_and_solver_give_the_same_reports(tmp_path, monkeypatch, capsys, make):
    paths = write_instance_files(make(), tmp_path / "data")
    solved = []

    def keep(model, config):
        solved.append((model, cli_solve(model, config)))
        return solved[-1][1]

    cli_solve = cli.solve
    monkeypatch.setattr(cli, "solve", keep)
    assert main(["solve", "--out-dir", str(tmp_path / "solve"), *input_args(paths)]) == 0
    ((model, solution),) = solved
    solution_file = tmp_path / "model.sol"
    solution_file.write_text("".join(
        f"{name} {float(solution.values[col])!r}\n"
        for col, name in enumerate(model.columns.names)))
    assert main(["report", "--solution", str(solution_file),
                 "--out-dir", str(tmp_path / "report"), *input_args(paths)]) == 0
    names = sorted(path.name for path in (tmp_path / "solve").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "report").iterdir())
    for name in names:
        assert (tmp_path / "solve" / name).read_bytes() == \
            (tmp_path / "report" / name).read_bytes(), name


def test_imports_load_no_scipy():
    # the shim imports scipy only inside its solve; a module-level scipy
    # import would add about a quarter second to every CLI start
    code = ("import sys, ucdispatch, ucdispatch.cli, ucdispatch.mipshim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
