"""In-memory spans around the public functions of each ucdispatch layer.

Tracing patches module attributes from outside; no source under ``src/``
changes.  The benchmark's own pipeline calls every layer through its module
(``ins.load_instance(...)``), so patching the module attribute traces
those calls.  ``ucdispatch.solve`` holds its own bindings for
``solve_dense_lp``, ``write_mps``, ``parse_solution_file``,
``check_solution`` and ``subprocess``; those are patched there too, which
traces the LP loop of the exact engine and the stages of the external bridge.
"""

from __future__ import annotations

import importlib
import subprocess
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("instance", "thinning", "model", "writers", "simplex", "solve",
          "mipshim", "report")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    instance: str | None = None
    replica: bool = False       # diagnostic re-run outside the timed pass
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance: str | None = None
        self.replica = False

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent,
                    instance=self.instance, replica=self.replica)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result
        return traced

    def self_times(self, durations: list[float]) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span.parent is not None:
                own[span.parent] -= duration
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "instance": s.instance,
                 "replica": s.replica, **s.attrs} for s in self.spans]


def _lp_result(span, result):
    span.attrs["pivots"] = result.iterations
    span.attrs["status"] = result.status


def _text_size(span, text):
    span.attrs["bytes"] = len(text.encode("utf-8"))


@contextmanager
def traced_layers(tracer: Tracer):
    """Patch every traced function for the duration of one traced pass."""
    mod = {name: importlib.import_module(f"ucdispatch.{name}")
           for name in ("instance", "thinning", "model", "writers", "solve",
                        "report", "mipshim")}
    solve_mod = mod["solve"]
    patches = [
        (mod["instance"], "load_instance", "instance.load", None),
        (mod["instance"], "validate", "instance.validate", None),
        (mod["thinning"], "thin_all", "thinning.thin", None),
        (mod["model"], "build_model", "model.build", None),
        (mod["model"], "model_stats", "model.stats", None),
        (mod["writers"], "write_mps", "writers.mps", _text_size),
        (mod["writers"], "write_lp", "writers.lp", _text_size),
        (solve_mod, "write_mps", "writers.mps", _text_size),
        (solve_mod, "solve_dense_lp", "simplex.lp", _lp_result),
        (solve_mod, "solve_exact", "solve.exact", None),
        (solve_mod, "solve_external", "solve.external", None),
        (solve_mod, "check_solution", "solve.check", None),
        (solve_mod, "parse_solution_file", "solve.parse_solution", None),
        (mod["report"], "build_report", "report.build", None),
        (mod["report"], "write_reports", "report.write", None),
        (mod["mipshim"], "parse_mps", "mipshim.parse_mps", None),
        (mod["mipshim"], "solve_problem", "mipshim.highs", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    saved.append((solve_mod, "subprocess", solve_mod.subprocess))
    try:
        for module, attr, name, on_result in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))
        # solve_external reaches the child through ``subprocess.run``
        solve_mod.subprocess = types.SimpleNamespace(
            run=tracer.wrap("solve.subprocess", subprocess.run))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, duration=lambda span: span.duration) -> dict[str, float]:
    """Per-layer totals of one traced pass (times in s, sizes in bytes).

    ``duration`` gives a span's time; the benchmark passes the speed probe's
    scaled time, so that layer times and ``pass_s`` are on one scale."""
    spans = tracer.spans
    times = [duration(s) for s in spans]
    own = tracer.self_times(times)

    def total(name, replica=False):
        return sum(t for s, t in zip(spans, times)
                   if s.name == name and s.replica == replica)

    lps = [s for s in spans if s.name == "simplex.lp"]
    pivots = sum(s.attrs["pivots"] for s in lps)
    optimal = sum(1 for s in lps if s.attrs["status"] == "optimal")
    emit = sum(t for s, t in zip(spans, times) if s.name == "writers.mps"
               and s.parent is not None and spans[s.parent].name == "solve.external")
    subprocess_s = total("solve.subprocess")
    replica_parse = total("mipshim.parse_mps", replica=True)
    replica_highs = total("mipshim.highs", replica=True)

    metrics = {
        "simplex.lp_s": total("simplex.lp"),
        "simplex.lps": len(lps),
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": pivots / len(lps) if lps else 0.0,
        "simplex.lp_optimal_share": optimal / len(lps) if lps else 0.0,
        "solve.exact_s": total("solve.exact"),
        "solve.enum_self_s": sum(own[i] for i, s in enumerate(spans)
                                 if s.name == "solve.exact"),
        "model.build_s": total("model.build"),
        "model.stats_s": total("model.stats"),
        "writers.mps_s": total("writers.mps"),
        "writers.lp_s": total("writers.lp"),
        "writers.mps_bytes": sum(s.attrs["bytes"] for s in spans
                                 if s.name == "writers.mps"),
        "writers.lp_bytes": sum(s.attrs["bytes"] for s in spans
                                if s.name == "writers.lp"),
        # build-week reads its emission back in the pass; external-desk
        # re-parses the child's input in-process, outside the timed pass
        "mipshim.parse_mps_s": total("mipshim.parse_mps") + replica_parse,
        "mipshim.highs_s": replica_highs,
        "mipshim.child_overhead_s": (subprocess_s - replica_parse - replica_highs
                                     if subprocess_s else 0.0),
        "solve.external_s": total("solve.external"),
        "solve.emit_s": emit,
        "solve.subprocess_s": subprocess_s,
        "solve.parse_solution_s": total("solve.parse_solution"),
        "solve.check_s": total("solve.check"),
        "report.build_s": total("report.build"),
        "report.write_s": total("report.write"),
        "instance.load_s": total("instance.load"),
        "instance.validate_s": total("instance.validate"),
        "thinning.thin_s": total("thinning.thin"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            own[i] for i, s in enumerate(spans)
            if not s.replica and s.name.split(".", 1)[0] == layer)
    return metrics
