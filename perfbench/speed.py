"""The machine's speed, sampled through a run, to normalise the times of a run.

On a shared virtual machine a fixed pure-Python loop runs up to twice as
slow for stretches from under a second to many minutes, and the process
cannot see why (no steal time; its CPU time equals its wall time).  A run
measures for seconds, so such stretches move a whole run.  The benchmark
therefore times a fixed reference loop every INTERVAL_S, from a timer signal
handled in the one thread between bytecodes, so also in the middle of a long
op.  The sampler's own time is left out of the clock that ops are timed with,
and a time taken over an interval is scaled by the mean speed of the samples
in and near it.  Scaled by REF_LOOP_S, the loop's time on a quiet machine,
every time reads as seconds at that speed.

The loop uses none of grasym, so a change to the program moves the op times
and not the loop.  It is interpreter work of the kind grasym does: integer
arithmetic, dict stores, and the method calls and allocations of Fraction
arithmetic.  On a 2-vCPU virtual machine, of a few loops tried, this mix slowed in busy
stretches by about as much as grasym's ops did (1.6 to 1.7 times; the ops
1.5 to 1.75 times).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

LOOP_ITERATIONS = 2000
FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(80)]
INTERVAL_S = 0.025  # time between samples
WINDOW_S = 0.05  # an interval is scaled by the samples up to this far outside it
# The loop's median time in a quiet stretch of a 2-vCPU virtual machine (Python 3.11).
REF_LOOP_S = 0.65e-3


def reference_loop() -> float:
    """Seconds of one run of the fixed loop."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        acc += len(table)
    total = Fraction(0)
    for x in FRACTIONS:
        total += x * x
    return time.perf_counter() - start


class SpeedLog:
    """Samples of the loop's time taken every INTERVAL_S while entered.

    ``clock()`` is time.perf_counter less the time spent sampling; sample
    times are on that clock.
    """

    def __init__(self):
        self.when = []
        self.loop_s = []
        self.stolen = 0.0  # seconds spent in the sampler
        self._previous = None
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        if self._busy:  # a signal that lands during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.loop_s.append(reference_loop())
        self.when.append(start - self.stolen)
        self.stolen += time.perf_counter() - start
        self._busy = False

    def clock(self) -> float:
        while True:  # retry if a sample lands between the two reads
            stolen = self.stolen
            now = time.perf_counter()
            if self.stolen == stolen:
                return now - stolen

    def scale(self, start: float, end: float) -> float:
        """REF_LOOP_S times the mean speed (1 / loop time) of the samples
        within WINDOW_S of [start, end] on clock(); multiply a time taken
        over that interval by it."""
        lo = bisect.bisect_left(self.when, start - WINDOW_S)
        hi = bisect.bisect_right(self.when, end + WINDOW_S)
        near = self.loop_s[lo:hi]
        if not near:
            raise ValueError("no speed sample near the interval")
        return REF_LOOP_S * statistics.fmean(1 / x for x in near)
