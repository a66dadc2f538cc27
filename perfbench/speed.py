"""Scaling measured times to a fixed reference machine speed.

On a shared host the same Python work can take twice as long from one
minute to the next, in CPU time as much as in wall time.  Timed side by
side, the engine and a fixed pure-Python calibration workload move
together to within a few per cent.  So while a run measures, a timer
signal takes a calibration reading every PERIOD_S seconds, in the
benchmark's own thread, and the time spent on readings is left out of the
ops it interrupts.  After the run every measured interval is scaled by
REF_S over the (smoothed) readings taken during it, or around it for an
interval shorter than the reading period.

The calibration workload uses only the standard library (Fraction
arithmetic, tuple keys, dicts, slotted objects and calls, the kinds of
work the engine does), so no change to the engine moves it.  A scaled time
reads as "seconds on a machine where one calibration reading takes
REF_S".  Every run prints its readings' quartiles, so raw times can be
recovered.  The benchmark pins itself, and so its subprocesses, to one CPU
(see run.py), so the readings measure the CPU that the measured work runs
on.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Median calibration reading on a 2-core x86-64 VM, CPython 3.11.7.
REF_S = 0.003
PERIOD_S = 0.2
# readings on each side that the median smoothing looks at
_SMOOTH = 2


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _work():
    table: dict[tuple, _Cell] = {}
    hits = 0
    for i in range(1, 600):
        a = Fraction(i % 17 + 1, i % 13 + 2)
        b = Fraction(i % 7 + 1, i % 11 + 3)
        key = (i % 5, i % 3, i % 2)
        if table.get(key) is not None:
            hits += 1
        table[key] = _Cell(key, a * b + a)
    return hits


class Speed:
    """A log of calibration readings over a run, and scaling by it."""

    def __init__(self):
        self.times = array("d")  # midpoint of each reading
        self.readings = array("d")  # seconds each reading took
        # seconds spent taking readings so far; ops subtract their share
        self.reading_s = 0.0
        self._factor: list[float] = []
        self._prefix: list[float] = []
        self.read()

    def read(self, *_):
        """Take one calibration reading (also the timer signal's handler)."""
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.readings.append(t1 - t0)
        self.reading_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @contextlib.contextmanager
    def paused(self):
        """Readings just before and after a subprocess, and none while it runs.

        The subprocess runs on the CPU the readings measure, so a reading
        would slow it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.read()
        try:
            yield
        finally:
            self.read()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer, take closing readings, and smooth the log."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(2 * _SMOOTH):
            self.read()
        r = self.readings
        self._factor = [
            REF_S / statistics.median(r[max(0, i - _SMOOTH):i + _SMOOTH + 1])
            for i in range(len(r))
        ]
        self._prefix = [0.0]
        for f in self._factor:
            self._prefix.append(self._prefix[-1] + f)

    def timed(self, call):
        """Wrap an op runner so that its seconds leave out readings taken inside."""
        def run(fn):
            before = self.reading_s
            out, seconds = call(fn)
            return out, seconds - (self.reading_s - before)
        return run

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """Scale `seconds` measured between perf_counter times t0 and t1 (after stop)."""
        i = bisect_right(self.times, t0)
        j = bisect_left(self.times, t1)
        if j > i:  # readings taken during the interval
            factor = (self._prefix[j] - self._prefix[i]) / (j - i)
        else:  # the readings just before and just after it
            last = len(self._factor) - 1
            factor = (self._factor[min(max(i - 1, 0), last)] + self._factor[min(i, last)]) / 2
        return seconds * factor
