"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the same call can take twice as long a few seconds later:
neighbours slow the virtual CPU for stretches of 10-20 s, and a whole run can
fall into one.  A time divided by the kernel's time, measured just before and
just after it, stays steady within ~5% while the raw time moves ~30%.  The
benchmark reports such ratios multiplied by ``NOMINAL_S``, so they read as
seconds at the kernel's quiet speed on the 2-core machine it was tuned on.

The kernel is the benchmark's own code and never calls marginseq, so changes
to the program cannot move it.  Like the program, it is interpreter-bound
Python with small numpy calls.
"""

import math
import statistics
import sys
import time

import numpy as np

# The kernel's time on a quiet 2-core virtual machine (numpy 2.4.6, Python 3.11.7).
NOMINAL_S = 0.62e-3
_REPEATS = 3
REPORT_TAG = "perfbench-speed"


def _kernel() -> float:
    acc = 0.0
    for i in range(6000):
        acc += math.sqrt(i * 0.5)
    a = np.arange(64.0)
    for _ in range(240):
        acc += float(np.dot(a, a[::-1]))
    return acc


def kernel_seconds() -> float:
    """Best of a few kernel calls: the machine's current speed, in seconds."""
    best = math.inf
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def report(before: float, cost: float) -> None:
    """From a child interpreter, after its work: print the kernel's time then
    and before (``before``), and the seconds all the timing took (``cost``
    so far, plus this)."""
    start = time.perf_counter()
    after = kernel_seconds()
    cost += time.perf_counter() - start
    print(f"{REPORT_TAG} {0.5 * (before + after)!r} {cost!r}", file=sys.stderr)


def parse_report(stderr: str) -> tuple[float, float] | None:
    """(mean kernel seconds, seconds the timing took) from a child's stderr."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(REPORT_TAG):
            kernel, cost = line.split()[1:]
            return float(kernel), float(cost)
    return None


class Speed:
    """Rescales times by the kernel measured on both sides of each one."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def sample(self) -> float:
        self.samples.append(kernel_seconds())
        return self.samples[-1]

    def rescale(self, seconds: float) -> float:
        """Call right after the timed work; returns its time at nominal speed."""
        before = self.samples[-1]
        return seconds * NOMINAL_S / (0.5 * (before + self.sample()))

    def factor(self) -> float:
        """Nominal over the median kernel time of everything sampled so far."""
        return NOMINAL_S / statistics.median(self.samples)
