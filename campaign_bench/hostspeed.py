"""Host speed: a fixed pure-Python loop, timed between work items.

The shared machines this benchmark runs on change speed by up to 1.6x
within minutes, as other tenants come and go, and every kind of work
slows with them.  A run lasts under a minute, so the raw wall-clock rates
of runs a few minutes apart differ by more than the gate's bounds even
when the program is the same.

So each measuring process times :func:`loop_seconds`, a fixed loop that
belongs to the benchmark and runs no ``repro`` code, after its set-up and
then about every :data:`EVERY_S` seconds between work items
(:class:`WorkClock`).  Each stretch of work time is scaled by
:data:`REFERENCE_S` over the mean loop time at the stretch's two ends:
the time the work would have taken on a host that runs the loop in
:data:`REFERENCE_S`.  Set-up time is scaled by the loop time taken right
after it.  Pure Python tracked the workloads' own swings best of the
loops tried (pure Python, a small GEMM, a large copy, a small im2col-like
mix); the raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one timing of the loop (a few milliseconds).
LOOPS = 20000

#: The loop's time (median of three) on the reference host.
REFERENCE_S = 0.002

#: Seconds between two timings of the loop.
EVERY_S = 0.5

#: Timings whose median gives the loop time right after set-up.
FIRST = 5


def loop_seconds() -> float:
    """Median time of three runs of the fixed loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, loop_s: float) -> float:
    """*seconds* of work on a host whose loop time is *loop_s*, at the
    reference speed."""
    return seconds * REFERENCE_S / loop_s


class WorkClock:
    """Work time of a timed phase, raw and at the reference speed.

    Times the loop when created (the median of :data:`FIRST` timings,
    which also scales the set-up) and then whenever :meth:`add` finds
    :data:`EVERY_S` seconds have passed since the last timing, which
    closes the stretch of work added since.  :meth:`close` closes the
    last stretch.
    """

    def __init__(self, sample=loop_seconds, clock=time.monotonic) -> None:
        self.sample, self.clock = sample, clock
        self.raw = self.scaled = 0.0
        self.samples = [statistics.median(sample() for _ in range(FIRST))]
        self._stretch = 0.0
        self._since = clock()

    def add(self, seconds: float) -> None:
        """Count *seconds* of work."""
        self._stretch += seconds
        if self.clock() - self._since >= EVERY_S:
            self.close()

    def close(self) -> None:
        """Time the loop and scale the open stretch by the loop's mean
        time at its two ends."""
        if not self._stretch:
            return
        loop_s = self.sample()
        self.raw += self._stretch
        self.scaled += scale(self._stretch, (self.samples[-1] + loop_s) / 2)
        self.samples.append(loop_s)
        self._stretch = 0.0
        self._since = self.clock()
