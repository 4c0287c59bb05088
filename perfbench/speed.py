"""Host speed gauge: a fixed pure-Python kernel, timed between operations.

On a shared host the same code runs 20-40 % slower for minutes at a time:
catalog passes drifted between 50 and 90 ms over four minutes on a 2-CPU
container while nothing else of the benchmark ran, and the ratio of a pass
to this kernel stayed within about 2 % over the same time.  Every measured
time is therefore multiplied by ``REFERENCE_S / kernel time``, the kernel
being measured just before and just after it: timed metrics are in reference
seconds, the time the operation takes on a host where the kernel takes
``REFERENCE_S``.  The kernel never calls the library, so a change to the
library cannot move it.
"""

from __future__ import annotations

import cmath
import math
import time

REFERENCE_S = 0.003
INTERVAL_S = 0.1     # re-measure at least this often


def kernel() -> complex:
    """Complex powers, logs and float math in a Python loop, like the Euler integrand."""
    acc = 0j
    z = 0.3 + 0.1j
    for k in range(1, 4000):
        u = k / 4000.0
        acc += cmath.exp(-0.7 * cmath.log(1.0 - z * u)) * math.pow(u, 0.4) * math.pow(1.0 - u, 0.2) / (1.0 + u)
    return acc


def measure() -> float:
    """Kernel time in seconds, the fastest of five runs to drop preemptions."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Host-to-reference factors, sampled at least every INTERVAL_S between operations.

    A time measured between samples i and i+1 is scaled by the mean of the
    two, so the kernel brackets what it corrects.  (A median over a wider
    window of samples tracked the host worse: its speed also changes within
    a second.)  Convert times once the run has ended, so the closing sample
    exists.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._due = 0.0

    def refresh(self) -> int:
        """Take a sample now; returns its index."""
        self.factors.append(REFERENCE_S / measure())
        self._due = time.perf_counter() + INTERVAL_S
        return len(self.factors) - 1

    def refresh_if_due(self) -> int:
        """Index of the sample that opens the current interval."""
        return self.refresh() if time.perf_counter() >= self._due else len(self.factors) - 1

    def factor(self, index: int) -> float:
        """Factor for a time measured between samples `index` and `index + 1`."""
        return 0.5 * (self.factors[index] + self.factors[min(index + 1, len(self.factors) - 1)])
