"""Host-speed normalisation of measured times.

On the reference machine (2 vCPUs shared with other tenants) the CPU speed
drifts by tens of percent within seconds: one identical greedy episode took
between 0.56 s and 1.13 s, with process CPU time tracking wall time and no
steal time recorded. A fixed pure-Python kernel, run about every
`PERIOD_S` of measured work, slows down with the host; reported times are
raw seconds scaled by `KERNEL_NOMINAL_S` over the kernel's mean measured
duration in the same interval, i.e. seconds on the reference machine at its
nominal speed. The kernel's own time is excluded from every interval.
"""

from __future__ import annotations

import time

PERIOD_S = 0.01
# Kernel duration that defines the reference second: its median on the
# reference machine (Python 3.11, 2 vCPUs) at a quiet moment. That host
# usually ran at about half this speed.
KERNEL_NOMINAL_S = 2.9e-4
KERNEL_ITERATIONS = 2000


def kernel() -> float:
    """Dict, list and float work in the proportions of the simulator's
    Python hot paths."""
    table: dict[int, float] = {}
    keys = []
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        k = i & 255
        table[k] = table.get(k, 0.0) + (i % 7) * 0.5
        if i & 7 == 0:
            keys.append(-k)
    keys.sort()
    for v in table.values():
        acc += v
    return acc + keys[0]


class SpeedMeter:
    """Kernel samples taken between pieces of measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # total time inside the kernel
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def tick(self) -> None:
        """Sample if `PERIOD_S` has passed since the last sample."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def factor(self, since: int) -> float:
        """Reference seconds per raw second over samples[since - 1:], which
        includes the sample taken just before the interval began."""
        window = self.samples[max(0, since - 1):]
        return KERNEL_NOMINAL_S / (sum(window) / len(window))
