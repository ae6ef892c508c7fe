"""Timing corrected for contention from other tenants of a shared host.

On a shared 2-vCPU host the same CLI call can take up to twice as long
when neighbours are busy, in spells that last from seconds to minutes, with no
steal time visible to the guest.  Medians within a run cannot remove a spell
that covers the whole run.  So while an interval is timed, a fixed reference
loop (exact ``Fraction`` products into a dict, like the program's own inner
loops) runs on SIGALRM every ``INTERVAL_S`` and three times on each side of
the interval.  The host's slowdown during the interval is the loop's mean
duration over ``NOMINAL_LOOP_S``.  The corrected time is the raw time divided
by that slowdown: seconds at the host speed on which the loop takes
``NOMINAL_LOOP_S``.  The loop's own time is taken out of the raw time.

The loop runs with the garbage collector paused, so that collections of the
program's heap do not count as host slowdown.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# the reference loop's mean duration on a quiet host (Xeon vCPU at 2.0 GHz, CPython 3.11)
NOMINAL_LOOP_S = 0.0003
INTERVAL_S = 0.05
EDGE_SAMPLES = 3

_KEYS = [(i % 31, i % 7, i % 5) for i in range(150)]
_LEFT = [Fraction(i % 97 + 1, i % 13 + 1) for i in range(150)]
_RIGHT = [Fraction(i % 89 + 3, i % 11 + 2) for i in range(150)]


def loop_seconds() -> float:
    """Run the reference loop once; its duration."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = {}
    get = acc.get
    for k, a, b in zip(_KEYS, _LEFT, _RIGHT):
        w = get(k)
        v = a * b
        acc[k] = v if w is None else w + v
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


@dataclass
class Timing:
    raw_s: float          # elapsed time, less the reference loop's own time
    loop_s: float         # mean reference-loop duration around and during the interval

    @property
    def corrected_s(self) -> float:
        return self.raw_s * NOMINAL_LOOP_S / self.loop_s


def measure(fn):
    """Call fn(); returns (its result, its Timing)."""
    samples = [loop_seconds() for _ in range(EDGE_SAMPLES)]
    inside = []

    def tick(signum, frame):
        t0 = time.perf_counter()
        samples.append(loop_seconds())
        inside.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.extend(loop_seconds() for _ in range(EDGE_SAMPLES))
    return result, Timing(elapsed - sum(inside), statistics.fmean(samples))


def total(timings) -> Timing:
    """One Timing for consecutive intervals: raw times add, and so do corrected ones."""
    timings = list(timings)
    raw = sum(t.raw_s for t in timings)
    corrected = sum(t.corrected_s for t in timings)
    return Timing(raw, NOMINAL_LOOP_S * raw / corrected if corrected else NOMINAL_LOOP_S)
