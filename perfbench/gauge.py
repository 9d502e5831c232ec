"""Machine-speed gauge: report times at one nominal CPU speed.

On a small shared VM the speed of the CPU drifts by a quarter or more
within seconds (a fixed pure-Python loop took anywhere from 145 to
258 ms within one 40 s window on the two-core VM this benchmark was
tuned on), so raw wall times of identical work spread too widely to
gate a change on: the median optimize time of one workload varied from
2.7 to 4.1 ms over five runs. The gauge times a fixed reference loop,
which uses no code of the package, between work items, and rescales
each item's wall time by REFERENCE_S / (the reference loop's time around
the item). A change to the package cannot move the reference loop, so
it cannot hide a gain or a regression; it removes the machine's drift.

The loop does integer arithmetic only: every int it makes is freed at
once, so its speed does not depend on the size or state of the
process's heap (a loop that grew a dict ran a third faster after a
large heap had been freed).
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0035  # the reference loop's time at nominal speed
SAMPLE_EVERY_S = 0.05
LONG_ITEM_S = 1.0


def reference_work() -> int:
    x = 0
    for i in range(30000):
        x = (x * 31 + i) & 0xFFFF
    return x


class Gauge:
    def __init__(self):
        self.ends: list[float] = []  # perf_counter() at the end of each sample
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent; call only between items."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time from the last sample
        before start to the first sample after end.

        Samples are taken between items only, so for an item longer than
        the drift period the two samples at its ends tell little about
        the speed during it; such items use the median of every sample
        of the run instead.
        """
        if end - start > LONG_ITEM_S:
            return REFERENCE_S / statistics.median(self.seconds)
        lo = max(bisect.bisect_right(self.ends, start) - 1, 0)
        hi = bisect.bisect_left(self.ends, end)
        around = self.seconds[lo : hi + 1] or self.seconds[-1:]
        return REFERENCE_S / statistics.median(around)

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] at nominal speed."""
        return (end - start) * self.factor(start, end)
