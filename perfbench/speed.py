"""The machine's speed during a run, sampled with a fixed reference computation.

A shared virtual machine changes speed by up to a factor of two, for
fractions of a second to minutes, and both of its cores change together.
Raw pass times then measure the host as much as the program.  While a run
measures, a timer interrupts the main thread every ``INTERVAL_S`` seconds and
times :func:`reference`, a few milliseconds of fixed work of the same kinds
the package does (small complex matrix products in numpy, complex arithmetic
in the interpreter).  A pass time divided by the mean reference time of the
samples taken during that pass is the pass's length in *reference units*:
the host's speed cancels, the program's does not, and the reference code
belongs to the benchmark, so no change to ``cqedw`` can move it.

Time spent in the samples is taken out of every time the benchmark measures:
:meth:`SpeedProbe.clock` is ``time.perf_counter`` minus the sampling time so
far.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

_rng = np.random.default_rng(20120223)
_M = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_M /= np.linalg.norm(_M, 2)
_X0 = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_C = [complex(a, b) for a, b in _rng.standard_normal((64, 2))]


def reference() -> complex:
    """Fixed work of about 3 ms on one core: 120 small complex matrix products
    and 12k complex multiply-adds in the interpreter."""
    x = _X0
    for _ in range(120):
        x = _M @ x + 0.5 * x
        x = x / abs(x[0, 0])
    acc = 0j
    for _ in range(192):
        for c in _C:
            acc = acc * 0.5 + c * c
    return acc + x[0, 0]


class SpeedProbe:
    """Times :func:`reference` every ``interval`` seconds of wall time while
    started.  ``samples`` holds ``(start, seconds)`` per sample on the
    ``time.perf_counter`` scale."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        # the handler's own overhead counts as sampling time too
        self.spent += time.perf_counter() - start

    def start(self):
        reference()  # warm the caches once before the first timed sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent sampling so far."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def mean_between(self, start: float, end: float) -> float | None:
        """Mean reference time of the samples started in ``[start, end)``
        (``time.perf_counter`` scale), or None if there are none."""
        inside = [s for t, s in self.samples if start <= t < end]
        return statistics.fmean(inside) if inside else None

    def mean(self) -> float:
        return statistics.fmean(s for _, s in self.samples)
