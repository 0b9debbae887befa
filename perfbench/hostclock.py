"""Host-speed normalization of measured times.

The host's speed drifts by tens of percent over tens of seconds, because
other tenants share the machine: the same XOR transient took anywhere
from 0.45 s to 0.94 s, and a pure-Python loop slowed down by the same
factor at the same moments. Raw run medians therefore spread by more
than any usable regression bound. A fixed reference kernel, independent
of dtlsim, is timed between consecutive measurements; each measured
time is divided by the mean of the reference samples taken just before
and just after it and multiplied by REF_NOMINAL_S. Reported times are
thus seconds on a host on which the kernel takes REF_NOMINAL_S. The raw
times and every reference sample go into the run's report.
"""

import statistics
import time

REF_NOMINAL_S = 0.010


def reference() -> float:
    """Time a fixed pure-Python workload: float updates of a tuple-keyed
    dict with 16k entries, the kind of work the simulator's interpreter
    does. A numpy kernel tracked the workloads worse, the image workload
    included."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(30000):
        key = ("v", (i * 7919) & 16383)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    return time.perf_counter() - t0


class HostClock:
    """Normalizes a sequence of back-to-back measurements. Each reference
    point is the median of three kernel runs, so one disturbed run does
    not skew the measurement next to it."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = self._point()

    def _point(self) -> float:
        runs = [reference() for _ in range(3)]
        self.samples += runs
        return statistics.median(runs)

    def scale(self, raw_s: float) -> float:
        """Normalize a time measured since the previous call (or since
        construction), taking the next reference point."""
        ref = self._point()
        local = 0.5 * (self._last + ref)
        self._last = ref
        return raw_s * REF_NOMINAL_S / local
