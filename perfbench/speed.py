"""A speed probe that scales wall-clock intervals to a reference machine speed.

The benchmark runs on shared hosts whose speed changes by up to 2x for
seconds or minutes at a time, whatever the program does (neighbours on the
same physical cores).  The probe measures that speed while the workload runs:
a timer signal interrupts the benchmark every ``PERIOD`` seconds and times
two fixed loops on the same CPU, between two bytecodes of whatever the
workload is doing.  The loops stand for the kinds of work in the pipeline:
small NumPy operations (the dense LP kernel) and string formatting and
splitting (the writers and parsers).  Each loop runs once untimed, so that
what the workload left in the caches does not count, then once timed.  A
sample's slowdown is the mean of the two loops' times, each over its
``NOMINAL_S``.  (An interpreted integer loop tracked the pipeline's own
slowdowns about half as well, and medians instead of means fail on a host
whose speed flips between two levels.)

An interval's *scaled* time is its wall time, minus the probes inside it,
divided by the mean slowdown of the samples around it: the seconds it would
have taken on a machine that runs the loops in ``NOMINAL_S``.  The program is
not touched, so a faster program still shows as a shorter scaled time; the
speed of the host, as far as the loops see it, does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.02
#: the loops' fastest times in a tight loop (``python3 perfbench/speed.py``) on
#: a 2-vCPU Xeon KVM guest, Python 3.11, NumPy 2.4
NOMINAL_S = (6.2e-5, 3.8e-5)
#: a sample this much slower than nominal was preempted, not slowed
CLIP = 4.0
#: each interval is scaled by the samples within this margin around it
MARGIN_S = 0.1
MIN_SAMPLES = 5

_MATRIX = np.eye(12) * 12.0 + np.arange(144.0).reshape(12, 12) / 144.0
_VECTOR = np.ones(12)


def _numpy() -> float:
    x = _VECTOR
    for _ in range(20):
        x = _MATRIX @ x
        x = x / x.max()
    return float(x[0])


def _strings() -> int:
    return len("".join(f"x{i} {i * 0.5:.6g}\n" for i in range(60)).split())


LOOPS = (_numpy, _strings)


class SpeedProbe:
    """Samples the loops' speed while entered; scales intervals afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []   # all loops of a sample
        self.slowdowns: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # the next signal came while this sample ran
            return
        self._busy = True
        try:
            start = time.perf_counter()
            slowdown = 0.0
            for loop, nominal in zip(LOOPS, NOMINAL_S):
                loop()
                then = time.perf_counter()
                loop()
                slowdown += min((time.perf_counter() - then) / nominal, CLIP)
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)
            self.slowdowns.append(slowdown / len(LOOPS))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples around [start, end]."""
        margin = MARGIN_S
        while True:
            lo = bisect.bisect_left(self.starts, start - margin)
            hi = bisect.bisect_right(self.starts, end + margin)
            if hi - lo >= MIN_SAMPLES:
                return statistics.fmean(self.slowdowns[lo:hi])
            if lo == 0 and hi == len(self.starts):
                raise RuntimeError("speed probe: too few samples")
            margin *= 2  # a long native call held the signal back

    def probe_time(self, start: float, end: float) -> float:
        """Time the probes took inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def scaled(self, intervals) -> float:
        """Scaled seconds of the (start, end) intervals, probes taken out."""
        return sum((end - start - self.probe_time(start, end)) / self.slowdown(start, end)
                   for start, end in intervals)

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.slowdowns)


def nominal_times(seconds: float = 5.0) -> list[float]:
    """Each loop's fastest time in a tight loop, to set ``NOMINAL_S``."""
    best = [float("inf")] * len(LOOPS)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for k, loop in enumerate(LOOPS):
            start = time.perf_counter()
            loop()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


if __name__ == "__main__":
    print(nominal_times())
