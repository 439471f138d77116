"""Speed probe: samples arrive while started, their time is kept out of the
benchmark's clock, and the timer and handler come off when stopped.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent)]

from speed import SpeedProbe  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_samples_are_taken_and_kept_out_of_the_clock():
    probe = SpeedProbe(interval=0.02)
    before = signal.getsignal(signal.SIGALRM)
    probe.start()
    try:
        t0, c0 = time.perf_counter(), probe.clock()
        _busy(0.4)
        t1, c1 = time.perf_counter(), probe.clock()
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert all(s > 0 for _, s in probe.samples)
    inside = sum(s for t, s in probe.samples if t0 <= t < t1)
    assert c1 - c0 == pytest.approx((t1 - t0) - inside, abs=2e-3)
    assert c1 - c0 < t1 - t0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_mean_between_selects_samples_by_start():
    probe = SpeedProbe()
    probe.samples = [(1.0, 0.002), (2.0, 0.004), (3.0, 0.009)]
    assert probe.mean_between(0.5, 2.5) == pytest.approx(0.003)
    assert probe.mean_between(3.5, 4.0) is None
    assert probe.mean() == pytest.approx(0.005)
