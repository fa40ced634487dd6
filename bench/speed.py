"""Scaling timings to a reference CPU speed.

On hosts that share their cores with other tenants, the speed of one core
swings by up to 1.7x over a few seconds, more than any bound worth setting.
So the benchmark times a fixed pure-Python reference loop between the units
it times, and scales each unit's wall time by REFERENCE_S over the loop's
time around it.  The loop runs no library code, so a change to the library
moves the scaled figure exactly as it moves the wall time at a steady speed.

REFERENCE_S is the loop's time at the fast state of the 2-vCPU x86-64 host
the baseline was measured on (CPython 3.11), so scaled figures read as wall
times on that host when nothing else runs.  The full report keeps the raw
wall times.
"""

from __future__ import annotations

import bisect
import os
import time
from typing import Iterable, List, Optional, Tuple

REFERENCE_S = 0.0011
LOOP = 20_000
PASSES = 3
EVERY_S = 0.2  # least time between two readings that maybe_take() takes


def reference_loop() -> float:
    """Seconds the fixed loop takes now: the fastest of a few passes, so a
    pass the scheduler interrupted does not count."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class SpeedTrack:
    """Reference-loop timings taken between timed units.

    With `cpus`, each reading is the mean over those CPUs, for units that run
    in child processes free to use any of them.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = sorted(cpus) if cpus else None
        self.times: List[float] = []
        self.loops: List[float] = []

    def take(self) -> None:
        self.times.append(time.perf_counter())
        if self.cpus is None:
            self.loops.append(reference_loop())
            return
        home = os.sched_getaffinity(0)
        readings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(reference_loop())
        os.sched_setaffinity(0, home)
        self.loops.append(sum(readings) / len(readings))

    def maybe_take(self) -> None:
        """Take a reading unless the last one is more recent than EVERY_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.take()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time of the readings just before
        start and just after end (or the nearest ones there are)."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S / ((self.loops[before] + self.loops[after]) / 2)

    def scale(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Scaled durations of (start, duration) pairs."""
        return [d * self.factor(s, s + d) for s, d in spans]
