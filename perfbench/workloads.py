"""The three benchmark workloads: inputs from a seed, one pipeline per instance,
and the checks on every output.

Every layer is called through its module (``ins.load_instance(...)``), so
that ``tracing.traced_layers`` can wrap the call from outside.  The pipeline
steps follow ``ucdispatch solve`` and ``ucdispatch build`` in ``cli.py``.
Time is taken only around pipeline steps (a :class:`Stopwatch`); the
benchmark's own checks run between them, off the clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from helpers import (fixture_instance, make_instance, make_unit, random_instance,
                     write_instance_files)
from ucdispatch.errors import ValidationFailed
from ucdispatch.instance import StartupCostCurve
from ucdispatch.writers import write_mps as emit_mps

ins = importlib.import_module("ucdispatch.instance")
thin = importlib.import_module("ucdispatch.thinning")
mdl = importlib.import_module("ucdispatch.model")
wr = importlib.import_module("ucdispatch.writers")
sol = importlib.import_module("ucdispatch.solve")
rep = importlib.import_module("ucdispatch.report")
shim = importlib.import_module("ucdispatch.mipshim")

FIXTURE_OPTIMUM = 2700.0
FIXTURE_PATTERN = (1, 1)
#: criterion 3's agreement bound between the external and the exact backend
AGREE_REL = 1e-6
RESIDUAL_TOL = 1e-6

# (units, periods, with storage, min up, min down) per random instance.  The
# seed draws every number; the commitment rules are fixed per slot so that
# each seed enumerates the same number of patterns.
# exact-desk's nine instances fall into three sizes: four small ones, four
# of 0.6-0.9 s (the middle of the nine, so instance_p50_s is not set by the
# gap between two sizes) and the 1024-pattern instance.
EXACT_SLOTS = [(2, 5, False, 2, 1), (2, 6, True, 2, 2), (1, 10, False, 1, 2),
               (2, 6, True, 2, 1), (2, 4, False, 2, 2), (1, 12, True, 2, 2),
               (1, 11, False, 2, 2)]
EXTERNAL_SLOTS = [(2, 3, False, 2, 1), (2, 3, True, 1, 1), (1, 6, False, 1, 2),
                  (2, 4, True, 1, 2), (3, 2, False, 1, 1), (1, 6, True, 2, 2),
                  (2, 4, False, 2, 2), (1, 8, True, 1, 1), (1, 8, False, 3, 1),
                  (2, 3, True, 2, 1), (3, 2, False, 2, 1)]
WEEK_UNITS, WEEK_PERIODS = 30, 168
#: the week instance always uses the startup curves of this seed's draw, so
#: the model size (dominated by startup-cost rows) is the same for every seed
WEEK_CURVE_SEED = 11


class Stopwatch:
    """The (start, end) intervals of the timed steps of one instance."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    @contextmanager
    def running(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((start, time.perf_counter()))


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _fixed_rules(instance, min_up, min_down):
    units = tuple(u if u.is_storage else dataclasses.replace(
        u, min_uptime=min_up, min_downtime=min_down,
        initial_uptime=0, initial_downtime=0) for u in instance.units)
    return dataclasses.replace(instance, units=units)


def _random_slots(seed, slots):
    rng = np.random.default_rng(seed)
    out = []
    for i, (n, T, storage, up, down) in enumerate(slots):
        inst = random_instance(rng, n, T, with_storage=storage)
        out.append((f"r{i:02d}-{n}x{T}{'s' if storage else ''}",
                    _fixed_rules(inst, up, down)))
    return out


def enumeration_instance():
    """The unpruned 1x10 instance of benchmarks/bench_simplex.py (1024 LPs)."""
    T = 10
    return make_instance(
        [make_unit(1, shutdown_cost=40.0)],
        demand=tuple(90.0 + 12.0 * k for k in range(T)),
        reserve=(5.0,) * T,
        curves={1: StartupCostCurve(1, {t: 150.0 + 40.0 * t for t in range(1, 7)})})


def write_inputs(instances, directory: Path):
    """Write each instance's four input files; returns (inputs, file hashes)."""
    inputs, hashes = [], {}
    for name, instance in instances:
        paths = write_instance_files(instance, directory / name)
        inputs.append((name, tuple(str(p) for p in paths)))
        for path in paths:
            hashes[f"{name}/{path.name}"] = sha256(path.read_bytes())
    return inputs, hashes


def inputs_digest(hashes: dict[str, str]) -> str:
    return sha256("".join(f"{key} {value}\n" for key, value in sorted(hashes.items())))


def _load_valid(paths):
    instance = ins.load_instance(*paths)
    report = ins.validate(instance)
    if not report.ok:
        raise ValidationFailed(report)
    return instance


def _pattern(model, values) -> tuple[int, ...]:
    return tuple(int(round(values[col])) for col in model.binary_columns())


def sizes(instance, thinned, model, written=()) -> dict[str, int]:
    """Work counts of one instance, for the traced run."""
    nnz = startup_nnz = 0
    for con in model.constraints:
        nnz += len(con.coefficients)
        if con.family == "startup-cost":
            startup_nnz += len(con.coefficients)
    return {
        "model.rows": len(model.constraints), "model.cols": model.num_columns,
        "model.nnz": nnz, "model.startup_cost_nnz": startup_nnz,
        "thinning.curve_points": sum(len(instance.curve(u.unit_id).costs)
                                     for u in instance.units),
        "thinning.groups": sum(len(curve.steps) for curve in thinned.values()),
        "report.bytes": sum(Path(p).stat().st_size for p in written),
    }


def _rel_close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class HighsReference:
    """Independent optimum of a model with scipy's HiGHS, optionally with
    some binary columns fixed; used to check the exact engine's answers."""

    def __init__(self, model):
        from scipy.optimize import LinearConstraint
        from scipy.sparse import csr_matrix

        n = model.num_columns
        self.c = np.zeros(n)
        for col, coef in model.objective.items():
            self.c[col] = coef
        rows, cols, data = [], [], []
        lo = np.full(len(model.constraints), -np.inf)
        hi = np.full(len(model.constraints), np.inf)
        for i, con in enumerate(model.constraints):
            for col, coef in con.coefficients.items():
                rows.append(i)
                cols.append(col)
                data.append(coef)
            if con.sense in ("=", ">="):
                lo[i] = con.rhs
            if con.sense in ("=", "<="):
                hi[i] = con.rhs
        self.constraint = LinearConstraint(
            csr_matrix((data, (rows, cols)), shape=(len(model.constraints), n)), lo, hi)
        self.binaries = model.binary_columns()
        self.integrality = np.zeros(n)
        self.integrality[self.binaries] = 1
        self.upper = np.full(n, np.inf)
        self.upper[self.binaries] = 1.0

    def optimum(self, fixed=None) -> float:
        from scipy.optimize import Bounds, milp

        lower, upper = np.zeros(len(self.c)), self.upper.copy()
        for col, bit in (fixed or {}).items():
            lower[col] = upper[col] = bit
        result = milp(self.c, constraints=[self.constraint],
                      integrality=self.integrality, bounds=Bounds(lower, upper),
                      options={"mip_rel_gap": 0.0})
        if result.status == 2:  # infeasible
            return math.inf
        if result.status != 0:
            raise RuntimeError(f"HiGHS reference: {result.message}")
        return float(result.fun)

    def lexicographic_problem(self, pattern, objective) -> str | None:
        """None if no lexicographically smaller pattern reaches ``objective``.

        The exact engine keeps the smallest pattern among ties; each branch
        below fixes a prefix of ``pattern`` and flips its next 1 to 0.
        """
        tie = 1e-7 * max(1.0, abs(objective))
        for i, bit in enumerate(pattern):
            if bit != 1:
                continue
            fixed = {col: pattern[k] for k, col in enumerate(self.binaries[:i])}
            fixed[self.binaries[i]] = 0
            branch = self.optimum(fixed)
            if branch <= objective + tie:
                return f"smaller pattern at bit {i} reaches {branch!r}"
        return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def instances(self, seed):
        raise NotImplementedError

    def run_instance(self, name, paths, out_dir, tracer=None):
        """Runs one instance; returns (timed intervals, outcome dict).

        The outcome holds ``error`` (None when every in-pass check held) and
        whatever the after-run checks need."""
        raise NotImplementedError

    def check(self, outcomes, reference) -> dict:
        """After-run checks.  ``outcomes`` maps instance name to the outcome of
        every pass; returns instance name -> error or None."""
        raise NotImplementedError


class ExactDesk(Workload):
    name = "exact-desk"

    def instances(self, seed):
        return ([("fixture", fixture_instance()),
                 ("enum-1x10", enumeration_instance())]
                + _random_slots(seed, EXACT_SLOTS))

    def run_instance(self, name, paths, out_dir, tracer=None):
        clock = Stopwatch()
        with clock.running():
            instance = _load_valid(paths)
            thinned = thin.thin_all(instance)
            model = mdl.build_model(instance, thinned)
            solution = sol.solve_exact(model)
            if solution.status != "optimal":
                return clock.intervals, {"error": f"status {solution.status}"}
            residuals = sol.check_solution(model, solution.values, RESIDUAL_TOL)
            report = rep.build_report(instance, model, solution)
            written = rep.write_reports(instance, model, solution, report, out_dir)
        demand = max(map(abs, rep.demand_residuals(instance, model, solution)),
                     default=0.0)
        error = None
        if not residuals.passed:
            error = f"check_solution failed: max residual {residuals.max_residual!r}"
        elif demand > RESIDUAL_TOL:
            error = f"demand residual {demand!r}"
        return clock.intervals, {
            "error": error, "model": model, "objective": solution.objective,
            "pattern": _pattern(model, solution.values),
            "sizes": sizes(instance, thinned, model, written)}

    def check(self, outcomes, reference):
        errors = {}
        for name, runs in outcomes.items():
            first = runs[0]
            if first.get("error") or "objective" not in first:
                errors[name] = first.get("error", "no result")
                continue
            objective, pattern = first["objective"], first["pattern"]
            error = None
            if any(r.get("objective") != objective or r.get("pattern") != pattern
                   for r in runs[1:]):
                error = "passes disagree"
            elif name == "fixture" and not (
                    _rel_close(objective, FIXTURE_OPTIMUM, 1e-9)
                    and pattern == FIXTURE_PATTERN):
                error = f"fixture gave {objective!r} {pattern}"
            else:
                highs = HighsReference(first["model"])
                best = highs.optimum()
                if not _rel_close(objective, best, AGREE_REL):
                    error = f"objective {objective!r}, HiGHS optimum {best!r}"
                else:
                    error = highs.lexicographic_problem(pattern, objective)
            if error is None and reference is not None:
                want_obj = reference["objectives"].get(name)
                want_pat = reference["patterns"].get(name)
                if want_obj is not None and not _rel_close(objective, want_obj, 1e-9):
                    error = f"objective {objective!r}, reference {want_obj!r}"
                elif want_pat is not None and list(pattern) != want_pat:
                    error = f"pattern {pattern}, reference {tuple(want_pat)}"
            errors[name] = error
        return errors

    @staticmethod
    def reference_entry(outcomes):
        return {"objectives": {n: r[0]["objective"] for n, r in outcomes.items()},
                "patterns": {n: list(r[0]["pattern"]) for n, r in outcomes.items()}}


class BuildWeek(Workload):
    name = "build-week"

    def instances(self, seed):
        curves = random_instance(np.random.default_rng(WEEK_CURVE_SEED), WEEK_UNITS,
                                 WEEK_PERIODS, with_storage=True).startup_curves
        week = random_instance(np.random.default_rng(seed), WEEK_UNITS,
                               WEEK_PERIODS, with_storage=True)
        return [(f"week-{WEEK_UNITS}x{WEEK_PERIODS}",
                 dataclasses.replace(week, startup_curves=curves))]

    def run_instance(self, name, paths, out_dir, tracer=None):
        clock = Stopwatch()
        with clock.running():
            instance = _load_valid(paths)
            thinned = thin.thin_all(instance)
            model = mdl.build_model(instance, thinned)
            stats = mdl.model_stats(model)
            mps = wr.write_mps(model)
        mps_sha = sha256(mps)
        with clock.running():
            lp = wr.write_lp(model)
        lp_sha = sha256(lp)
        del lp
        with clock.running():
            problem = shim.parse_mps(mps)
        del mps
        readback = (len(problem.rows), len(problem.var_order),
                    sum(len(coefs) for coefs, _, _ in problem.rows),
                    len(problem.integers))
        del problem
        with clock.running():
            sol.check_solution(model, np.zeros(model.num_columns))
        counts = sizes(instance, thinned, model)
        expected = (stats["total_constraints"], stats["total_variables"],
                    counts["model.nnz"], stats["binaries"])
        error = None
        if readback != expected:
            error = f"read-back counts {readback} != model_stats {expected}"
        return clock.intervals, {"error": error, "mps": mps_sha, "lp": lp_sha,
                               "sizes": counts}

    def check(self, outcomes, reference):
        errors = {}
        for name, runs in outcomes.items():
            first = runs[0]
            error = first.get("error")
            if error is None and any((r.get("mps"), r.get("lp"))
                                     != (first["mps"], first["lp"]) for r in runs):
                error = "emission differs between passes"
            if error is None and reference is not None and (
                    (first["mps"], first["lp"]) != (reference["mps"], reference["lp"])):
                error = "MPS/LP SHA-256 differs from the reference"
            errors[name] = error
        return errors

    @staticmethod
    def reference_entry(outcomes):
        (runs,) = outcomes.values()
        return {"mps": runs[0]["mps"], "lp": runs[0]["lp"]}


class ExternalDesk(Workload):
    name = "external-desk"

    def __init__(self):
        self.config = sol.SolverConfig(
            backend="external",
            command_template=f"{sys.executable} -m ucdispatch.mipshim {{model}} {{solution}}")

    def instances(self, seed):
        return [("fixture", fixture_instance())] + _random_slots(seed, EXTERNAL_SLOTS)

    def run_instance(self, name, paths, out_dir, tracer=None):
        clock = Stopwatch()
        with clock.running():
            instance = _load_valid(paths)
            thinned = thin.thin_all(instance)
            model = mdl.build_model(instance, thinned)
            solution = sol.solve_external(model, self.config)
            report = rep.build_report(instance, model, solution)
            written = rep.write_reports(instance, model, solution, report, out_dir)
        if tracer is not None:
            # split the child's time: parse and HiGHS again, in-process
            tracer.replica = True
            try:
                shim.solve_problem(shim.parse_mps(emit_mps(model)))
            finally:
                tracer.replica = False
        return clock.intervals, {"error": None, "model": model,
                               "objective": solution.objective,
                               "sizes": sizes(instance, thinned, model, written)}

    def check(self, outcomes, reference):
        errors = {}
        for name, runs in outcomes.items():
            first = runs[0]
            if "model" not in first:
                errors[name] = first.get("error", "no result")
                continue
            exact = sol.solve_exact(first["model"])
            error = None
            if exact.status != "optimal":
                error = f"exact reference status {exact.status}"
            elif name == "fixture" and not _rel_close(exact.objective, FIXTURE_OPTIMUM, 1e-9):
                error = f"fixture exact optimum {exact.objective!r}"
            else:
                bad = [r["objective"] for r in runs if "objective" in r
                       and not _rel_close(r["objective"], exact.objective, AGREE_REL)]
                if bad:
                    error = f"external {bad[0]!r}, exact {exact.objective!r}"
            errors[name] = error
        return errors


WORKLOADS = {w.name: w for w in (ExactDesk, BuildWeek, ExternalDesk)}
