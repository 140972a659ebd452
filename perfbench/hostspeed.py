"""Host-speed sampling, so that timed metrics hold still on a shared host.

The host this benchmark runs on switches between fast and slow spells (a
fixed pure-Python loop takes 16 or 25 ms depending on the spell, on either
core), and the share of slow spells drifts over minutes.  CPU time moves
with wall time, so neither clock can tell host drift from a change in qloop.

While a repetition runs (and while its interpreter imports qloop), a
SIGALRM interval timer interrupts it every PERIOD_S and runs a fixed
calibration loop that touches no qloop code (tuple-keyed dict inserts, small
big-int gcds: the operations qloop spends its time on).  The loop's mean
duration over the interval is a host-speed index.  An interval's adjusted
time is its own time less the sampling's cost, scaled by REF_SAMPLE_S / mean
loop time: the time it would have taken had the loop run at its reference
speed throughout.  A change in qloop moves the
adjusted time as it moves the raw one; a spell that slows both cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

PERIOD_S = 0.02
LOOP_ITERATIONS = 200
# Median duration of one timed calibration pass, interleaved with qloop, on the
# 2-vCPU Xeon host the benchmark was written on (Python 3.11.7).  It only
# sets the scale of adjusted times, which read in seconds at that speed.
REF_SAMPLE_S = 225e-6


def _loop() -> None:
    memo = {}
    acc = 1
    for i in range(LOOP_ITERATIONS):
        key = (i % 977, i % 131, i)
        memo[key] = (acc * 3 + i) % 1000000007
        acc = gcd(memo[key] * 12345678901234567, 98765432109876543) + acc % 1013 + 1


def calibration_sample() -> tuple:
    """(start, duration, cost) of one sample of the calibration loop.

    The loop runs twice and only the second pass is timed: the first warms
    the caches qloop has just evicted, whose refill does not speed up with
    the host as computation does.  The cyclic garbage collector is off
    throughout: the loop's allocations would otherwise set off collections
    of qloop's heap, whose cost belongs to qloop.  The cost is the time the
    whole sample took from the code it interrupted."""
    start = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = time.perf_counter()
        _loop()
        duration = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return start, duration, time.perf_counter() - start


class Sampler:
    """Samples the calibration loop once in start(), every PERIOD_S until
    stop(), and once in stop(); restores the previous SIGALRM handler."""

    def __init__(self) -> None:
        self.samples = []  # (start, duration, cost)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(calibration_sample())

    def start(self) -> None:
        self.samples.append(calibration_sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibration_sample())

    def summary(self, t0: float, t1: float) -> dict:
        """The host-speed index, and what sampling cost the interval t0..t1
        (perf_counter readings)."""
        return {"host_samples": len(self.samples),
                "host_sample_mean_s": sum(d for _, d, _ in self.samples) / len(self.samples),
                "host_sampling_s": sum(c for t, _, c in self.samples if t0 <= t < t1)}


def adjusted(seconds: float, summary: dict) -> float:
    """A time measured under the sampler, less the sampling, at reference speed."""
    return ((seconds - summary["host_sampling_s"])
            * REF_SAMPLE_S / summary["host_sample_mean_s"])
