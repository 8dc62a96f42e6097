"""CLI subcommands and their exit codes."""

import errno
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHIM_TEMPLATE
from helpers import (
    fixture_instance,
    make_instance,
    make_unit,
    multi_unit_instance,
    storage_instance,
    write_instance_files,
)
import ucdispatch.solve as solve_module
from ucdispatch import cli
from ucdispatch.cli import main
from ucdispatch.instance import StartupCostCurve
from ucdispatch.model import build_model, model_stats
from ucdispatch.solve import solve_exact
from ucdispatch.thinning import thin_all


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

    @pytest.mark.parametrize("which, pattern, line, message", [
        (1, r",200\.0,", ",nan,", "P_max: NaN is not a valid value"),
        (1, r"^1,1,", "1,1.5,", "UT: expected an integer, got '1.5'"),
        (0, r"^T = .*$", "T 2", "expected KEY = VALUE, got 'T 2'"),
        (0, r"^START = .*$", "START = 2009-05-11",
         "START must be 'YYYY-MM-DD HH:MM:SS', got '2009-05-11'"),
        (0, r"^T = .*$", "T = 0", "T must be at least 1"),
        (0, r"^UPP = .*$", "UPP = -1", "penalties must be nonnegative"),
        (3, r"^2009-05-11 01:00:00", "2009-05-11 1 o'clock",
         "t: expected 'YYYY-MM-DD HH:MM:SS'"),
    ], ids=["nan-cell", "fractional-uptime", "config-line-without-equals",
            "start-without-time", "zero-periods", "negative-penalty", "bad-timestamp"])
    def test_input_error_exits_two(self, fixture_files, capsys, which, pattern, line,
                                   message):
        path = fixture_files[which]
        path.write_text(re.sub(pattern, line, path.read_text(), count=1, flags=re.M))
        assert main(["validate", *input_args(fixture_files)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {path}") and message in err

    @pytest.mark.parametrize("changes, code", [
        (dict(units=[make_unit(fuel_type="a-b")]), "invalid-fuel-name"),
        (dict(reserve=(0.0, -5.0)), "negative-reserve"),
        (dict(fuel_cost={"gas": (1.0, -2.0)}), "negative-fuel-cost"),
    ], ids=["fuel-name", "negative-reserve", "negative-fuel-cost"])
    def test_period_and_fuel_errors_exit_one(self, tmp_path, capsys, changes, code):
        instance = make_instance(**{"units": [make_unit()], "demand": (100.0, 150.0),
                                    **changes})
        paths = write_instance_files(instance, tmp_path / "bad")
        assert main(["validate", "--json", *input_args(paths)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in payload["errors"]] == [code]

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

    def test_duplicate_startup_row_exits_two(self, fixture_files, capsys):
        startup = fixture_files[2]
        startup.write_text(startup.read_text() + "1,1,50000.0\n")
        assert main(["thin", *input_args(fixture_files)]) == 2
        captured = capsys.readouterr()
        assert "50000" not in captured.out
        assert "units_cu.csv:3: unit 1 already has a row for k = 1, on line 2" in captured.err

    def test_repeated_config_key_exits_two(self, fixture_files, capsys):
        config = fixture_files[0]
        config.write_text(config.read_text() + "UPP = 5\n")
        assert main(["thin", *input_args(fixture_files)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:8: UPP is already set on line 4\n"

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

    def test_json_prints_model_stats(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "model.mps"
        assert main(["build", "--json", "--out", str(out), *input_args(fixture_files)]) == 0
        expected = model_stats(build_model(fixture_instance()))
        assert json.loads(capsys.readouterr().out) == expected

    def test_rewrite_leaves_exactly_the_new_bytes(self, fixture_files, tmp_path):
        out = tmp_path / "model"
        for fmt in ("mps", "lp", "mps"):  # the LP text is the shorter
            fresh = tmp_path / f"fresh.{fmt}"
            for path in (out, fresh):
                assert main(["build", "--format", fmt, "--out", str(path),
                             *input_args(fixture_files)]) == 0
            assert out.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "fresh.lp").stat().st_size < \
            (tmp_path / "fresh.mps").stat().st_size

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_dev_null_output_exits_zero(self, fixture_files, capsys):
        assert main(["build", "--out", "/dev/null", *input_args(fixture_files)]) == 0
        assert capsys.readouterr().out.startswith("wrote /dev/null")

    def test_directory_output_exits_two(self, fixture_files, tmp_path, capsys):
        assert main(["build", "--out", str(tmp_path), *input_args(fixture_files)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")

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
        # UPP * L overflows the p_under objective coefficient; this wrote inf
        instance = make_instance([make_unit()], demand=(100.0, 150.0),
                                 upp=1e308, length=2.0)
        paths = write_instance_files(instance, tmp_path / "penalty")
        assert main(["build", "--out", str(out), *input_args(paths)]) == 1
        assert not out.exists()
        assert "p_under objective coefficient" in capsys.readouterr().err


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

    def test_penalties_are_charged_per_mwh(self, tmp_path, capsys):
        # producing 100 MW for 2 h costs 60 * 2 * 100 = 12000; shedding it
        # costs UPP * L * 100 = 20000, not the 10000 of a per-MW penalty
        instance = make_instance(
            [make_unit(1, p_min=0.0, var_cost=60.0, fixed_cost=0.0)],
            demand=(100.0,), upp=100.0, opp=100.0, length=2.0)
        paths = write_instance_files(instance, tmp_path / "mwh")
        out_dir = tmp_path / "out"
        assert main(["solve", "--json", "--out-dir", str(out_dir),
                     *input_args(paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(12000.0)
        assert sum(payload["cost_breakdown"].values()) == pytest.approx(12000.0)
        assert (out_dir / "p.csv").read_text().splitlines()[1].split(",")[-1] == "100"

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

    def test_negative_binary_budget_is_usage_error(self, fixture_files, tmp_path, capsys):
        # this exited 3, hinting at the external backend
        with pytest.raises(SystemExit) as info:
            main(["solve", "--binary-budget", "-1", "--out-dir", str(tmp_path / "x"),
                  *input_args(fixture_files)])
        assert info.value.code == 2
        assert "--binary-budget must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # 0 is a budget: the fixture's two binaries exceed it
        assert main(["solve", "--binary-budget", "0", "--out-dir", str(tmp_path / "x"),
                     *input_args(fixture_files)]) == 3
        assert "enumeration budget of 0" in capsys.readouterr().err

    def test_overflowing_costs_exit_three(self, tmp_path, capsys):
        # the walk's first pattern, 11, overflows its bounds before any LP
        instance = make_instance([make_unit(var_cost=1e308)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "huge")
        out_dir = tmp_path / "results"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", "--out-dir", str(out_dir), *input_args(paths)]) == 3
        assert "overflow in the LP bounds of pattern 11" in capsys.readouterr().err
        assert not out_dir.exists()

    def stderr_of_child_solve(self, tmp_path, **unit):
        """The exit code and the stderr lines of ``python -m ucdispatch.cli
        solve`` on one unit with ``unit``'s overrides."""
        instance = make_instance([make_unit(**unit)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path / "huge")
        result = subprocess.run(
            [sys.executable, "-m", "ucdispatch.cli", "solve",
             "--out-dir", str(tmp_path / "results"), *input_args(paths)],
            capture_output=True, text=True)
        return result.returncode, result.stderr.splitlines()

    def test_overflow_prints_one_stderr_line(self, tmp_path):
        # NumPy's overflow warnings used to come before the error line
        code, (line,) = self.stderr_of_child_solve(tmp_path, var_cost=1e308)
        assert code == 3
        assert line.startswith("solver error: exact solver arithmetic failed: overflow "
                               "in the LP bounds of pattern 11")

    def test_simplex_overflow_prints_one_stderr_line(self, tmp_path):
        # the bounds are finite: the first overflow is in the simplex's
        # arithmetic, which the guard's errstate covers
        code, (line,) = self.stderr_of_child_solve(tmp_path, fixed_cost=1e308)
        assert code == 3
        assert line.startswith("solver error: simplex arithmetic failed: overflow")

    def test_json_summary(self, fixture_files, tmp_path, capsys):
        assert main(["solve", "--json", "--out-dir", str(tmp_path / "j"),
                     *input_args(fixture_files)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(2700.0)
        assert payload["cost_breakdown"]["production_cost"] == pytest.approx(2700.0)
        stats = payload["stats"]
        assert stats["lps"] > 0
        assert stats["warm"] + stats["rejected"] <= stats["lps"]
        assert stats["patterns"] == (stats["bound_infeasible"] + stats["dual_pruned"]
                                     + stats["lps"])

    def test_json_summary_of_the_external_backend(self, fixture_files, tmp_path, capsys):
        # its stats were {}
        assert main(["solve", "--json", "--backend", "external", "--solver-cmd", SHIM_TEMPLATE,
                     "--out-dir", str(tmp_path / "j"), *input_args(fixture_files)]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats.keys() == {"emit_s", "solver_s", "parse_s", "check_s", "returncode"}
        assert stats["returncode"] == 0
        times = [stats[key] for key in ("emit_s", "solver_s", "parse_s", "check_s")]
        assert min(times) >= 0.0 and stats["solver_s"] > 0.0
        assert sum(times) == pytest.approx(payload["wall_time"], rel=1e-9)

    def test_config_override_changes_solution(self, fixture_files, tmp_path,
                                              capsys):
        # D isn't in the config, but scaling the underproduction penalty to 0
        # makes not producing free: the optimum drops to 0
        assert main(["solve", "--set", "UPP=0", "--set", "OPP=0",
                     "--out-dir", str(tmp_path / "o"),
                     *input_args(fixture_files)]) == 0
        assert "objective 0" in capsys.readouterr().out

    @pytest.mark.parametrize("pair", ["t=1", "UP=0", "START_TOL=0.1"])
    def test_unknown_config_override_is_usage_error(self, fixture_files, tmp_path,
                                                    capsys, pair):
        # "t=1" solved the fixture with T = 2 and exited 0
        with pytest.raises(SystemExit) as info:
            main(["solve", "--set", pair, "--out-dir", str(tmp_path / "o"),
                  *input_args(fixture_files)])
        assert info.value.code == 2
        assert f"unknown config key {pair.split('=')[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_override_without_equals_is_usage_error(self, fixture_files, tmp_path,
                                                           capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--set", "UPP", "--out-dir", str(tmp_path / "o"),
                  *input_args(fixture_files)])
        assert info.value.code == 2
        assert "--set expects KEY=VALUE, got 'UPP'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_leaves_exactly_the_new_reports(self, fixture_files, tmp_path, capsys):
        # four periods and two units, then the two-period fixture
        longer = write_instance_files(storage_instance(), tmp_path / "storage")
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["solve", "--out-dir", str(shared), *input_args(longer)]) == 0
        before = {path.name: path.stat().st_size for path in shared.iterdir()}
        for out_dir in (shared, fresh):
            assert main(["solve", "--out-dir", str(out_dir),
                         *input_args(fixture_files)]) == 0
        names = sorted(before)
        assert names == sorted(path.name for path in fresh.iterdir())
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        assert all(before[name] > (fresh / name).stat().st_size
                   for name in names if name != "summary.csv")

    def test_report_name_that_is_a_directory_exits_two(self, fixture_files, tmp_path,
                                                       capsys):
        out_dir = tmp_path / "results"
        (out_dir / "v.csv").mkdir(parents=True)
        assert main(["solve", "--out-dir", str(out_dir), *input_args(fixture_files)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out_dir / 'v.csv'}")

    def test_out_dir_that_is_a_file_exits_two(self, fixture_files, tmp_path, capsys):
        out_dir = tmp_path / "results"
        out_dir.write_text("not a directory\n")
        assert main(["solve", "--out-dir", str(out_dir), *input_args(fixture_files)]) == 2
        assert "error: cannot " in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["model file", "temporary directory"])
    def test_external_write_failure_exits_two(self, fixture_files, tmp_path, monkeypatch,
                                              capsys, fault):
        # the raw OSError of a failed model write escaped as a traceback
        if fault == "model file":
            def refuse(path, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            monkeypatch.setattr(solve_module, "write_file", refuse)
        else:
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        out_dir = tmp_path / "results"
        assert main(["solve", "--backend", "external", "--solver-cmd", SHIM_TEMPLATE,
                     "--out-dir", str(out_dir), *input_args(fixture_files)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solution_value_exits_three(self, fixture_files, tmp_path,
                                                   capsys, value):
        # no row reads cu_1_1: this printed "objective nan" (or inf) and exited 0
        solution_file = tmp_path / "model.sol"
        solution_file.write_text(
            "v_1_1 1\nv_1_2 1\np_1_1 100\np_1_2 150\n"
            f"pm_1_1 200\npm_1_2 200\ncp_1_1 1100\ncp_1_2 1600\ncu_1_1 {value}\n")
        assert main(["report", "--solution", str(solution_file),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("solver error: solution violates the model: max residual 0, "
                                "integrality gap 0, bound violation inf\n")
        assert not (tmp_path / "rep").exists()

    def test_column_given_twice_exits_three(self, fixture_files, tmp_path, capsys):
        # the second cu_1_1 line overwrote the first without a word: this
        # wrote the reports of an objective of 2701
        solution_file = tmp_path / "model.sol"
        solution_file.write_text(
            "v_1_1 1\nv_1_2 1\np_1_1 100\np_1_2 150\n"
            "pm_1_1 200\npm_1_2 200\ncp_1_1 1100\ncp_1_2 1600\ncu_1_1 0\ncu_1_1 1\n")
        assert main(["report", "--solution", str(solution_file),
                     "--out-dir", str(tmp_path / "rep"),
                     *input_args(fixture_files)]) == 3
        assert capsys.readouterr().err == (
            "solver error: column 'cu_1_1' is given twice: in line 9 'cu_1_1 0' "
            "and in line 10 'cu_1_1 1'\n")
        assert not (tmp_path / "rep").exists()

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
    # the shim shares no code with the builder, so it loads none of it
    code = ("import sys, ucdispatch.mipshim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ucdispatch'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "['ucdispatch', 'ucdispatch.mipshim']"


#: what a fuzzed config value or CSV cell becomes: numbers of every kind,
#: timestamps, separators and short text
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1",
                     "1.5", "x", "2024-01-01 00:00:00", "2024-13-01 00:00:00", " ", ",",
                     "=", '"']),
    st.integers(-10**6, 10**6).map(str), st.floats().map(repr), st.text(max_size=6))


@settings(max_examples=100, deadline=None)
@given(make=st.sampled_from([fixture_instance, storage_instance]),
       which=st.integers(0, 3), line=st.integers(0, 10**6), cell=st.integers(0, 30),
       value=FUZZ_CELLS,
       command=st.sampled_from([["validate"], ["thin"], ["build", "--format", "mps"],
                                ["build", "--format", "lp"], ["solve"]]))
def test_fuzzed_input_cell_exits_with_a_documented_code(make, which, line, cell, value,
                                                        command):
    # one config value or CSV cell replaced: every command ends in 0-3,
    # argparse's usage exit included, and raises nothing else
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_instance_files(make(), Path(tmp) / "data")
        lines = paths[which].read_text(encoding="utf-8").splitlines()
        i = line % len(lines)
        if which == 0:
            lines[i] = f"{lines[i].partition('=')[0]}= {value}"
        else:
            cells = lines[i].split(",")
            cells[cell % len(cells)] = value
            lines[i] = ",".join(cells)
        paths[which].write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = [*command, *input_args(paths)]
        if command[0] == "build":
            args += ["--out", str(Path(tmp) / "model")]
        elif command[0] == "solve":
            args += ["--out-dir", str(Path(tmp) / "results")]
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(action=st.sampled_from(["value", "line", "delete", "repeat"]),
       line=st.integers(0, 10**6), text=FUZZ_CELLS)
def test_fuzzed_solution_line_exits_with_a_documented_code(action, line, text):
    # one line of the fixture's exact solution file has its value or the
    # whole line replaced, is deleted or is repeated: report ends in 0-3
    # and raises nothing else
    instance = fixture_instance()
    model = build_model(instance, thin_all(instance))
    values = solve_exact(model).values
    lines = [f"{name} {float(values[col])!r}" for col, name in enumerate(model.columns.names)]
    i = line % len(lines)
    if action == "value":
        lines[i] = f"{lines[i].split()[0]} {text}"
    elif action == "line":
        lines[i] = text
    elif action == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_instance_files(instance, Path(tmp) / "data")
        solution_file = Path(tmp) / "model.sol"
        solution_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            code = main(["report", "--solution", str(solution_file),
                         "--out-dir", str(Path(tmp) / "rep"), *input_args(paths)])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3)
