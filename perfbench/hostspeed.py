"""Host-speed reference: a fixed pure-Python kernel timed between job runs.

The benchmark's host shares its cores with other tenants.  Their load slows
a job by a third or more for seconds at a time, in CPU time as much as in
wall time, so raw timings of the same code spread wider than any useful bound.
One round of the kernel below is timed before every job run, every
``SAMPLE_S`` seconds during it (from a SIGALRM handler, between two bytecodes
of the job; the round's time is taken off the job's), and once more at the
end of every pass.  A run of length ``dt`` is scaled by ``REF_S`` over the
mean length of the rounds from ``dt`` before its start to ``dt`` after its
end, and always of the round just before and just after it: a short run
takes the host's speed from its two neighbours, a long one from the rounds
during and around it as well.  That gives seconds on a host where one round
takes ``REF_S``, a fixed constant within the range one round takes under
CPython 3.11 on a shared 2-core x86-64 VM (0.011 to 0.02 s).

The kernel does what gfrob spends its time in, ``Fraction`` arithmetic on
tuple-keyed dicts and a closure over tuples, so the same interference slows
both.  It never calls gfrob: a change to gfrob moves the scaled times in the
same proportion as the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.015
SAMPLE_S = 0.1


def _kernel() -> int:
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    prod: dict[tuple[int, int], Fraction] = {}
    for (a, b), x in p.items():
        for (c, d), y in p.items():
            k = (a + c, b + d)
            prod[k] = prod.get(k, 0) + x * y
    start = (0, 1, 2, 3, 4, 5)
    seen = {start}
    todo = [start]
    while todo:
        t = todo.pop()
        for i in range(5):
            u = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(prod) + len(seen)


def round_s() -> float:
    """Wall time of one reference round (three kernel calls).

    The cyclic collector is off during the round: the kernel makes no cycles,
    and a collection it triggered would time the heap of the workload, not
    the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            if _kernel() != 801:
                raise RuntimeError("reference kernel gave a wrong answer")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Reference:
    """The reference rounds timed in one run, and the scaling of times by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def tick(self) -> None:
        """Time one round now; call it before every timed run and after the last."""
        self.starts.append(time.perf_counter())
        self.lengths.append(round_s())

    @contextlib.contextmanager
    def sampling(self, on: bool = True):
        """Also time a round every SAMPLE_S seconds while the block runs.

        The rounds run in a SIGALRM handler, so only in the main thread;
        ``own`` and ``scale`` take them off the time of the run they fell in.
        With ``on`` false nothing is sampled.
        """
        if not on:
            yield
            return
        active = True

        def handler(signum, frame):
            if active:
                self.tick()
                # one-shot, re-armed after the round: the block always gets
                # SAMPLE_S between two rounds, however slow a round is
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def own(self, start: float, end: float) -> float:
        """Wall time of a run from ``start`` to ``end`` (perf_counter), less the rounds timed inside it."""
        inside = self.lengths[bisect.bisect_right(self.starts, start):bisect.bisect_left(self.starts, end)]
        return end - start - sum(inside)

    def scale(self, start: float, end: float) -> float:
        """A run's own time in reference seconds."""
        dt = self.own(start, end)
        lo = min(bisect.bisect_left(self.starts, start - dt), bisect.bisect_left(self.starts, start) - 1)
        hi = max(bisect.bisect_right(self.starts, end + dt), bisect.bisect_left(self.starts, end) + 1)
        if lo < 0 or hi > len(self.starts):
            raise ValueError("a timed run needs a reference round before and after it")
        return dt * REF_S / statistics.fmean(self.lengths[lo:hi])
