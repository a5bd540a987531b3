"""Machine-speed probe: a fixed piece of pure-Python work, timed while a workload runs.

The benchmark runs on shared hosts whose speed drifts by tens of percent within
minutes, as other tenants load the same cores and caches.  The benchmark's
timings are therefore scaled to a reference speed: a timing T taken while
`kernel` averaged K seconds is reported as T * REFERENCE_S / K.  While the
workload runs, a SIGALRM handler times the kernel every `INTERVAL_S`
seconds; a cold-start probe times it in its own fresh interpreter.  The
kernel never calls the package, so a change to the package moves the scaled
time by the same share as the raw one, while a slower host moves the kernel
and the workload alike and cancels out.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# About the kernel's median time on the host the bounds were set on (Intel
# Xeon, 2 vCPUs, Python 3.11.7) in a calm stretch, so scaled timings read
# close to seconds there.  The constant is part of the benchmark's
# definition: it changes only together with `kernel`.
REFERENCE_S = 0.001
INTERVAL_S = 0.05


def kernel() -> int:
    """About a millisecond of the interpreter work the package does.

    A column scan of small integer arithmetic, like the Pick scan, then
    Fraction sums and rational formatting, like the report commands.
    """
    n = 10**20 + 12345
    count = 0
    for _ in range(5400):
        if n >= 0:
            count += n // 977
        n -= 1
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i, i + 7)
    text = "".join([f"{i}/{i + 1}" for i in range(1000)])
    return count + total.denominator + len(text)


def kernel_seconds(count: int) -> list[float]:
    """Times of `count` kernel runs, after one untimed run that warms it up."""
    kernel()
    samples = []
    for _ in range(count):
        start = perf_counter()
        kernel()
        samples.append(perf_counter() - start)
    return samples


class SpeedProbe:
    """Times `kernel` on a timer while active; usable as a context manager.

    `samples` holds every kernel time taken so far.  `spent` is the total
    time the probe itself took, which callers subtract from any interval
    they time while it is active.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args: object) -> None:
        start = perf_counter()
        kernel()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def scale(self, first: int = 0) -> float:
        """REFERENCE_S over the mean kernel time of samples[first:]."""
        if len(self.samples) <= first:
            self.sample()
        return REFERENCE_S / fmean(self.samples[first:])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
