"""Pipeline benchmark of ucdispatch: three closed-loop workloads.

    python3 perfbench/run.py --workload exact-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One client in one process runs the
workload's instances one after the other (a closed loop); the only other
process is the external solver child of ``external-desk``, which the client
waits for.  ``--seed`` draws the inputs; the program only sees the generated
CSV files.  With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics of a traced pass (see README.md).  The
last line of standard output is one JSON object.  Times are scaled to the
host's speed as ``speed.SpeedProbe`` measures it during the run; the
wall-clock times are printed and recorded beside them.
"""

from __future__ import annotations

import os

# pin the BLAS/OpenMP pools before NumPy loads; the solver child inherits them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import NOMINAL_S, PERIOD, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import ucdispatch, ucdispatch.cli, ucdispatch.mipshim; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-desk", "build-week", "external-desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fingerprint() -> dict:
    import numpy
    import scipy

    from ucdispatch import simplex
    return {"kernel": simplex.kernel_name(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def pin_to_one_cpu() -> int:
    """Keeps the benchmark and its children on one CPU, so the speed probe
    samples the CPU the shim child runs on too."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def instance_times(probe, samples) -> dict[str, float]:
    """Each instance's median scaled time over the run's passes."""
    return {name: statistics.median(probe.scaled(intervals) for intervals in runs)
            for name, runs in samples.items()}


def wall_times(samples) -> dict[str, float]:
    """Each instance's median wall-clock time over the run's passes."""
    return {name: statistics.median(sum(end - start for start, end in intervals)
                                    for intervals in runs)
            for name, runs in samples.items()}


class Run:
    """One benchmark invocation: set-up, timed passes, checks."""

    def __init__(self, workload, seed, work_dir: Path, probe):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.probe = probe
        self.warm_up_error = None

    def set_up(self):
        """Import probe, input generation and a warm-up pass, repeated; the
        inputs of the last repetition are the ones measured."""
        from helpers import fixture_instance
        from workloads import inputs_digest, write_inputs

        self.setup_intervals = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            imported = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                      env=child_env(), capture_output=True,
                                      text=True, check=True)
            self.import_s = float(imported.stdout)
            directory = self.work_dir / f"inputs-{rep}"
            inputs, hashes = write_inputs(self.workload.instances(self.seed), directory)
            warm, _ = write_inputs([("warm-up", fixture_instance())], directory)
            for name, paths in warm:
                try:
                    self.workload.run_instance(name, paths, self.work_dir / "warm-up")
                except Exception:  # the measured passes count the failure
                    self.warm_up_error = traceback.format_exc(limit=3)
            self.setup_intervals.append((start, time.perf_counter()))
            if rep:
                shutil.rmtree(self.work_dir / f"inputs-{rep - 1}")
        self.inputs, self.hashes = inputs, hashes
        self.digest = inputs_digest(hashes)

    def one_pass(self, samples, tracer=None):
        """Runs every instance once, adding its timed intervals to ``samples``."""
        for name, paths in self.inputs:
            if tracer is not None:
                tracer.instance = name
            start = time.perf_counter()
            try:
                intervals, outcome = self.workload.run_instance(
                    name, paths, self.work_dir / "reports" / name, tracer)
            except Exception:  # a failed instance is counted, not fatal
                intervals = [(start, time.perf_counter())]
                outcome = {"error": traceback.format_exc(limit=3)}
            sizes = outcome.pop("sizes", None)
            if self.outcomes.get(name):
                outcome.pop("model", None)  # keep only the first pass's model
            elif sizes is not None:
                self.sizes[name] = sizes
            self.outcomes.setdefault(name, []).append(outcome)
            samples.setdefault(name, []).append(intervals)

    def measure(self, seconds, trace):
        """Passes until the next one would overrun ``seconds`` (at least one;
        with tracing, untraced and traced passes alternate)."""
        from tracing import Tracer, traced_layers

        self.outcomes, self.sizes = {}, {}
        self.samples, self.traced_samples = {}, {}
        self.passes, self.tracers = 0, []
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            self.one_pass(self.samples)
            if trace:
                tracer = Tracer()
                with traced_layers(tracer):
                    self.one_pass(self.traced_samples, tracer)
                self.tracers.append(tracer)
            self.passes += 1
            last = time.perf_counter() - pass_start
            if time.perf_counter() - started + last > seconds:
                break

    def check(self):
        reference = self.reference()
        errors = self.workload.check(self.outcomes, reference)
        self.attempted = sum(len(runs) for runs in self.outcomes.values())
        self.failed = sum(1 for name, runs in self.outcomes.items() for outcome in runs
                          if outcome.get("error") or errors.get(name))
        self.errors = {}
        for name, runs in self.outcomes.items():
            error = errors.get(name) or next(
                (o["error"] for o in runs if o.get("error")), None)
            if error:
                self.errors[name] = error

    def reference(self):
        table = json.loads((HERE / "reference.json").read_text())
        entry = table["seeds"].get(str(self.seed), {}).get(self.workload.name)
        if entry is None:
            self.reference_note = "no recorded reference for this seed"
            return None
        if entry["inputs"] != self.digest:
            self.reference_note = "inputs differ from the recorded ones: workload changed"
            return None
        self.reference_note = "recorded reference applies"
        return entry

    def timings(self):
        """Scaled times (see speed.py) of every instance and set-up."""
        self.instance_s = instance_times(self.probe, self.samples)
        self.instance_wall_s = wall_times(self.samples)
        self.traced_instance_s = instance_times(self.probe, self.traced_samples)
        self.setup_s = [self.probe.scaled([interval]) for interval in self.setup_intervals]
        self.slowdown = self.probe.mean_slowdown()

    def end_to_end(self, names) -> dict[str, float]:
        times = list(self.instance_s.values())
        metrics = {"pass_s": sum(times),
                   "instance_p50_s": statistics.median(times),
                   "setup_s": statistics.median(self.setup_s),
                   "peak_rss_mb": peak_rss_mib()}
        return {name: metrics[name] for name in names}

    def per_layer(self, names) -> dict[str, float]:
        from tracing import layer_metrics

        def scaled(span):
            return self.probe.scaled([(span.start, span.end)])

        metrics = {}
        layers = [layer_metrics(tracer, scaled) for tracer in self.tracers]
        for key in layers[0]:
            metrics[key] = statistics.fmean(layer[key] for layer in layers)
        for key in next(iter(self.sizes.values()), {}):
            metrics[key] = sum(sizes[key] for sizes in self.sizes.values())
        traced = sum(self.traced_instance_s.values())
        metrics["trace.pass_s"] = traced
        metrics["trace.overhead_s"] = traced - sum(self.instance_s.values())
        return {name: metrics[name] for name in names}


def prepare() -> bool:
    """Puts the checkout's sources on the path; False outside a checkout."""
    if not (SRC / "ucdispatch" / "__init__.py").is_file() or \
            not (TESTS / "helpers.py").is_file():
        print(f"perfbench: run from a source checkout; {SRC / 'ucdispatch'} or "
              f"{TESTS / 'helpers.py'} is missing", file=sys.stderr)
        return False
    sys.path[:0] = [str(HERE), str(SRC), str(TESTS)]
    os.environ["PYTHONPATH"] = child_env()["PYTHONPATH"]
    return True


@contextmanager
def scratch_dir(tag: str):
    """A work directory inside the checkout, also used for temporary files."""
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    # solve_external's temporary files stay inside the checkout
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = None
    try:
        yield work_dir
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    from workloads import WORKLOADS

    if args.trace:
        import scipy.optimize  # noqa: F401  (the in-process HiGHS replica)
    cpu = pin_to_one_cpu()
    with scratch_dir(f"{args.workload}-{args.seed}") as work_dir:
        with SpeedProbe() as probe:
            run = Run(WORKLOADS[args.workload](), args.seed, work_dir, probe)
            run.set_up()
            run.measure(args.seconds, args.trace)
        run.check()
    run.timings()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fingerprint(), "inputs_sha256": run.hashes,
              "inputs_digest": run.digest, "reference": run.reference_note,
              "cpu": cpu, "mean_slowdown": run.slowdown,
              "probe": {"period_s": PERIOD, "nominal_s": NOMINAL_S,
                        "samples": len(probe.durations)},
              "import_s": run.import_s, "setup_intervals": run.setup_intervals,
              "setup_scaled_s": run.setup_s, "instance_scaled_s": run.instance_s,
              "instance_wall_s": run.instance_wall_s,
              "instance_intervals": run.samples, "errors": run.errors,
              "warm_up_error": run.warm_up_error}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = run.per_layer(units)
        record["traced_instance_scaled_s"] = run.traced_instance_s
        record["spans"] = [tracer.to_json() for tracer in run.tracers]
    else:
        metrics = run.end_to_end(units)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str))

    fp = record["fingerprint"]
    print(f"{args.workload} seed {args.seed}: kernel {fp['kernel']}, Python "
          f"{fp['python']}, NumPy {fp['numpy']}, SciPy {fp['scipy']}, "
          f"nproc {fp['nproc']}; inputs {run.digest[:16]} ({run.reference_note})")
    print(f"  passes {run.passes}, instances {len(run.samples)}, failed_share "
          f"{run.failed / run.attempted:.4f} ({run.failed}/{run.attempted})")
    print(f"  probe: {len(probe.durations)} samples on CPU {cpu}, mean slowdown "
          f"{run.slowdown:.3f} over nominal speed; wall-clock pass "
          f"{sum(run.instance_wall_s.values()):.6g} s")
    for name, error in run.errors.items():
        print(f"  FAILED {name}: {error.strip().splitlines()[-1]}")
    for key in metrics:
        print(f"  {key} {metrics[key]:.6g} {units[key]}")
    print(f"  record: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for one metric kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
