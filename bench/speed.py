"""Times taken at a fixed reference speed of the host.

The host a run's CPU sits on changes speed by up to 1.8x, in phases of
a fraction of a second to a minute, with no steal time to show for it:
the process itself runs slower.  A raw time then says more about the
host than about gwstack.  So the benchmark keeps measuring how fast the
host is now, with a fixed loop that calls no gwstack code
(:func:`calibration_s`), and reports every time scaled to the speed at
which that loop takes ``CAL_REF_S``.  A change to gwstack cannot move
the loop; only the host can.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

CAL_STEPS = 750
# What calibration_s() takes on a quiet core of the 2-core virtual
# machine the benchmark was written on.
CAL_REF_S = 0.0024
CAL_EVERY_S = 0.1


def calibration_s() -> float:
    """Seconds a fixed loop takes now: the host's current speed.

    When the host is busy, object-heavy code (allocation, calls, dicts)
    slows more than plain integer arithmetic, and gwstack's code lies in
    between, nearer the former.  The loop spends about three quarters of
    its time on rational arithmetic with tuple-keyed dict updates and the
    rest on an integer loop; of the mixes tried, that one left the least
    run-to-run spread over all four workloads.
    """
    start = perf_counter()
    memo, total = {}, Fraction(0)
    for i in range(1, CAL_STEPS):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        memo[key] = memo.get(key, 0) + i
    acc = 0
    for i in range(1, 11 * CAL_STEPS):
        acc += i * i % 7
    return perf_counter() - start


class SpeedProbe:
    """Samples :func:`calibration_s` at least every ``CAL_EVERY_S`` while
    it is entered: at each :meth:`tick` between two ops and, with
    ``timer``, from a ``SIGALRM`` handler.

    The handler runs between two bytecodes of whatever the benchmark is
    running, so an op of a second or more gets speed samples from its
    middle, not only from its ends.  The time the handler takes is left
    out of the op's time.  An op that runs in a child process must go
    without: the loop would share the CPU with the child and read half
    speed.
    """

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, *_) -> None:
        start = perf_counter()
        seconds = calibration_s()
        self.starts.append(start)
        self.seconds.append(seconds)

    def tick(self) -> None:
        if perf_counter() - self.starts[-1] >= CAL_EVERY_S:
            self._sample()

    def __enter__(self) -> SpeedProbe:
        self._sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` outside the handler, at the reference
        speed: scaled by the mean of the samples taken within
        ``CAL_EVERY_S`` of the interval."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        busy = sum(self.seconds[lo:hi])
        near = self.seconds[
            bisect_left(self.starts, start - CAL_EVERY_S):
            bisect_left(self.starts, end + CAL_EVERY_S)
        ] or self.seconds[max(lo - 1, 0):hi + 1]
        return (end - start - busy) * CAL_REF_S / statistics.fmean(near)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given :func:`calibration_s`
    just before and just after them."""
    return seconds * 2 * CAL_REF_S / (before + after)
