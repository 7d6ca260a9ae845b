"""The machine's speed over a run, from short calibration bursts.

The benchmark's host is a shared VM whose speed drifts by up to 1.8×
between and within runs, in blocks of a few seconds, in CPU time as well as
wall time.  A fixed piece of pure-Python work (:func:`burst`) is run every
``INTERVAL`` seconds between operations, so each operation has bursts timed
on the same machine state around it.  :meth:`SpeedClock.scale` turns a raw
time into seconds at the reference speed: a machine on which one burst
takes ``REFERENCE_S``.  The burst calls nothing of ``pseudomv`` and runs
with the garbage collector off, so a change to the library cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

#: Seconds one burst takes at the reference speed (about its median on a
#: 2.1 GHz Xeon vCPU under Python 3.11).
REFERENCE_S = 0.004
#: Seconds of run per burst.
INTERVAL = 0.1
#: Most bursts run together, after a long operation.
MAX_BURSTS = 5
#: Bursts within this many seconds of an operation give its machine speed.
WINDOW = 1.0
#: Bursts used when fewer than this many fall inside the window.
NEAREST = 5


def burst() -> int:
    """Fixed interpreter work of the kind the library does: small-integer
    and ``Fraction`` arithmetic, method calls and dict updates."""
    acc, table = Fraction(0), {}
    for i in range(900):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        if acc.denominator > 10**6:
            acc = Fraction(acc.numerator % 101, 7)
        table[i % 32] = table.get(i % 32, 0) + acc.numerator % 97
    return sum(table.values())


class SpeedClock:
    """Timed bursts over a run, and raw times scaled by them."""

    def __init__(self):
        self.times = []       # burst midpoints, ascending
        self.lengths = []     # burst durations, in the same order
        self.last = float("-inf")

    def measure(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            burst()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.lengths.append(end - start)
        self.last = end

    def tick(self):
        """Run one burst for each ``INTERVAL`` since the last one (at most
        ``MAX_BURSTS``), so that a long operation has as many bursts
        around it, per second, as a run of short ones."""
        for _ in range(min(MAX_BURSTS, int((perf_counter() - self.last) / INTERVAL))):
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """Median burst length around [start, end] over ``REFERENCE_S``."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return statistics.median(self.lengths[lo:hi]) / REFERENCE_S

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds / self.factor(start, start + seconds)
