"""Machine-speed correction of measured wall times.

On a small shared host the same code runs up to a third slower for seconds
at a time, as neighbours load the cores; medians over a whole run still move
by 15-30% from one run to the next. The benchmark therefore times a fixed
reference kernel (interpreter-bound Python plus small numpy/BLAS products,
the two kinds of work bemopt does) right before and right after each
measured interval, and rescales the interval's wall time to what it would
have been with the kernel at its reference duration:

    corrected = wall * REFERENCE_S / mean(kernel before, kernel after)

A program change moves the interval, not the kernel, so it shows in full;
a slow spell of the machine moves both and cancels. The kernel is part of
the benchmark and calls no bemopt code.
"""

import math
import time

import numpy as np

# Median duration of `reference_kernel` on the machine the baseline was taken
# on (perfbench/baseline.json); it only fixes the scale of corrected seconds.
REFERENCE_S = 0.075

SETTLE_S = 0.1  # idle time before each kernel run, so BLAS threads of the workload park

_A = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
_B = np.linspace(1.0, -1.0, 64 * 64).reshape(64, 64) / 8.0


def reference_kernel() -> float:
    """Fixed work: a scalar Python recurrence, then chained 32x64 @ 64x64 products."""
    x, s = 0.5, 0
    for i in range(160_000):
        x = 0.9 * x + math.exp(-x * x) * 0.1
        s += i * i % 7
    y = _A
    for _ in range(2_000):
        y = np.tanh(y @ _B) + 0.1 * _A
    return s + x + float(y.sum())


class SpeedProbe:
    """Kernel timings taken between measured intervals, in time order."""

    def __init__(self, clock=time.perf_counter, sleep=time.sleep):
        self.clock = clock
        self.sleep = sleep
        self.samples = []  # seconds per kernel run
        self.taken_at = None  # clock reading when the last sample ended

    def sample(self) -> float:
        self.sleep(SETTLE_S)
        t0 = self.clock()
        reference_kernel()
        self.taken_at = self.clock()
        self.samples.append(self.taken_at - t0)
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier from wall seconds to corrected seconds for an interval
        bracketed by kernel timings `before` and `after`."""
        return REFERENCE_S / (0.5 * (before + after))
