"""Host-speed reference for the hetsim benchmark.

On a shared host the speed of the same pure-Python code drifts by up to
1.7x within seconds, in CPU time as well as in wall time, because other
tenants share the cores and their caches. A fixed reference loop, timed
between the program's cycles, tracks that drift: the program's time
divided by the reference's time next to it varies far less than either.

`HostSpeed` times the reference loop at cycle boundaries, at most every
`SAMPLE_EVERY_NS` of work, and turns the samples into one factor per
stretch of work between two samples. A stretch's time multiplied by its
factor is that time at the nominal speed of the reference loop
(`NOMINAL_WALL_NS`, `NOMINAL_CPU_NS`: its fastest time on a 2-vCPU Xeon
at 2.1 GHz with Python 3.11.7), so normalized figures read as seconds on
that host when nothing else runs on it. The reference does not call the
program, so a change to the program moves the normalized figures by
exactly its own effect.
"""

from __future__ import annotations

import statistics
import time

#: Least work, in ns, between two samples of the reference loop.
SAMPLE_EVERY_NS = 5_000_000
#: Reference loop time on an unloaded host (see the module docstring).
NOMINAL_WALL_NS = 280_000
NOMINAL_CPU_NS = 280_000
#: Samples on each side of a stretch that its factor takes the median of.
WINDOW = 2


def reference_loop(n: int = 2000) -> float:
    """Fixed interpreter work: small-dict updates and float arithmetic."""
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(n):
        k = i & 63
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) / (k + 1)
    return acc


class HostSpeed:
    """Reference-loop samples taken between stretches of measured work."""

    def __init__(self) -> None:
        self.wall_ns: list[int] = []
        self.cpu_ns: list[int] = []
        self._last = 0

    def sample(self) -> None:
        """Time the reference loop once; the next stretch starts after it."""
        cpu_start, start = time.process_time_ns(), time.perf_counter_ns()
        reference_loop()
        self._last = time.perf_counter_ns()
        self.wall_ns.append(self._last - start)
        self.cpu_ns.append(time.process_time_ns() - cpu_start)

    def maybe_sample(self) -> int:
        """Sample if enough work has passed; the index of the current stretch."""
        if not self.wall_ns or time.perf_counter_ns() - self._last >= SAMPLE_EVERY_NS:
            self.sample()
        return len(self.wall_ns) - 1

    @staticmethod
    def _factors(samples: list[int], nominal: int) -> list[float]:
        # Stretch j lies between samples j and j+1; the median of the samples
        # around it ignores one that a preemption happened to hit.
        return [nominal / statistics.median(samples[max(0, j - WINDOW): j + WINDOW + 2])
                for j in range(len(samples))]

    def wall_factor(self) -> float:
        """One wall-time factor from all samples, for work timed as a whole."""
        return NOMINAL_WALL_NS / statistics.median(self.wall_ns)

    def wall_factors(self) -> list[float]:
        return self._factors(self.wall_ns, NOMINAL_WALL_NS)

    def cpu_factors(self) -> list[float]:
        return self._factors(self.cpu_ns, NOMINAL_CPU_NS)
