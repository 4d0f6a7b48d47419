"""Calibrated time: wall time rescaled by the host's measured speed.

On a shared host the speed of a core drifts between 1x and 2x within tens
of milliseconds when other tenants load it, and that drift, not the
program, would set the spread between runs.  A ``SpeedSampler`` measures
the drift while the program runs: every ``INTERVAL_S`` of wall time a
SIGALRM handler times a fixed loop with the kind of work the interval code
does.  Samples are uniform in wall time, so the mean of REFERENCE_S /
sample is the share of reference-speed work done per second, and wall
time times that mean is the time the same work takes at the reference
speed.  REFERENCE_S is about the loop's time on an idle 2-vCPU sandbox,
so calibrated seconds are close to seconds there.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.0005


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


_GRID = np.linspace(0.0, 1.0, 64)


def loop_time() -> float:
    """Time of a fixed loop with the interval code's mix of work: small
    objects, directed rounding and small numpy array operations.  (A loop
    of float arithmetic alone was measured to miss about a tenth of the
    slowdown the program sees.)"""
    t0 = time.perf_counter()
    acc = _Pair(0.0, 0.0)
    for i in range(400):
        p = _Pair(i * 0.5, i * 0.5 + 1.0)
        acc = _Pair(math.nextafter(acc.lo + p.lo, -math.inf),
                    math.nextafter(acc.hi + p.hi, math.inf))
        if i % 8 == 0:
            y = np.nextafter(_GRID * 1.5 + 0.25, np.inf)
            acc = _Pair(acc.lo + float(y[3]), acc.hi + float(y.sum()))
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager that samples the host's speed while it is open."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples.append(loop_time())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrated(self, wall: float, since: int = 0) -> float:
        """``wall`` seconds, during which samples ``since`` on were taken,
        at the reference speed.  The samples' own time is taken out."""
        samples = self.samples[since:]
        work = wall - math.fsum(samples)
        speed = math.fsum(REFERENCE_S / s for s in samples or [loop_time()])
        return work * speed / max(len(samples), 1)
