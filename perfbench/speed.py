"""Speed-normalised wall time.

The machine the benchmark runs on may change speed while it runs: on a
shared host a fixed pure-Python task can take 50% longer for seconds
at a time, in spells that cover whole runs. Raw wall time then
measures the host as much as the program. To take that out, the
workload runs a fixed calibration kernel between operations, about
every CALIBRATE_EVERY_S of wall time, and every measured interval is
scaled by how long the kernel took around it:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

so a timing metric reads what it would on a machine where the kernel
takes exactly REFERENCE_S. The speed seen by consecutive kernels is
strongly correlated over tens of milliseconds, so the scaling tracks
the spells; time spent in the kernel itself is never counted.
"""

from __future__ import annotations

import bisect
import statistics
import time

perf = time.perf_counter

#: Wall time between calibrations, seconds.
CALIBRATE_EVERY_S = 0.01
#: Kernel time that defines reference speed, seconds.
REFERENCE_S = 0.0005
#: Loop length of the kernel (about REFERENCE_S on a 2 GHz Xeon).
KERNEL_STEPS = 5000
#: Kernels on each side of a gap whose median sets its speed.
NEIGHBOURS = 2
#: Kernels in a row at each step of set-up, where steps are far apart.
BURST = 3


def _kernel() -> int:
    """Fixed interpreter work: dict updates, integer arithmetic, calls."""
    table: dict[int, int] = {}
    get = table.get
    for step in range(KERNEL_STEPS):
        key = step & 255
        table[key] = get(key, 0) + step
    return len(table)


class Speedometer:
    """Calibrations taken during a run, and the scaling they imply."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0
        self._factors: list[float] | None = None

    def tick(self, force: bool = False) -> None:
        """Calibrate if CALIBRATE_EVERY_S has passed (or *force*).

        Call it between operations, outside every timed interval.
        """
        start = perf()
        if not force and start < self._next:
            return
        _kernel()
        end = perf()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)
        self._next = end + CALIBRATE_EVERY_S
        self._factors = None

    def burst(self) -> None:
        """Calibrate BURST times in a row, now."""
        for _ in range(BURST):
            self.tick(force=True)

    def _gap_factors(self) -> list[float]:
        """Scale of each gap: gap k lies between kernels k-1 and k."""
        if self._factors is None:
            n = len(self.durations)
            self._factors = [
                REFERENCE_S / statistics.median(
                    self.durations[max(0, k - NEIGHBOURS):
                                   min(n, k + NEIGHBOURS)])
                for k in range(n + 1)]
        return self._factors

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end], minus
        any kernel time inside it."""
        if not self.durations:
            raise RuntimeError("no calibration taken")
        factors = self._gap_factors()
        n = len(self.durations)
        k = bisect.bisect_right(self.ends, start)
        total = 0.0
        while True:
            lo = max(start, self.ends[k - 1]) if k > 0 else start
            hi = min(end, self.starts[k]) if k < n else end
            if hi > lo:
                total += (hi - lo) * factors[k]
            if k >= n or self.starts[k] >= end:
                return total
            k += 1

    def summary(self) -> dict:
        """Calibration count and kernel wall times, for the record."""
        if not self.durations:
            return {"calibrations": 0}
        quartiles = statistics.quantiles(self.durations, n=4) \
            if len(self.durations) > 1 else [self.durations[0]] * 3
        return {"calibrations": len(self.durations),
                "kernel_ms_q1_median_q3": [round(q * 1e3, 4)
                                           for q in quartiles],
                "reference_kernel_ms": REFERENCE_S * 1e3}
