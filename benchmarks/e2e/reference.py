"""A fixed reference computation that samples the host's current speed.

On a shared machine the same code runs up to twice as slow during a
neighbour's busy spell; spells last from a fraction of a second to
minutes.  While work runs, :class:`HostSpeed` runs a short fixed *tick*
of reference work every few milliseconds from a timer signal and
records how long each tick took.  The mean tick over a piece of work is
the host's speed over the same interval the work experienced, so the
benchmark can report host time in ticks as well as in seconds.

The reference is pure Python that resembles the simulator's own inner
loops: heap scheduling, tuple-keyed dict probes and slot attribute
updates.  It imports nothing from the repository, so a change to the
simulator never changes it.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time
from typing import List


class _Core:
    __slots__ = ("time", "hits")

    def __init__(self) -> None:
        self.time = 0
        self.hits = 0


def reference_work(steps: int) -> int:
    cores = [_Core() for _ in range(64)]
    heap = [(0, i) for i in range(64)]
    table = {}
    for step in range(steps):
        t, c = heapq.heappop(heap)
        core = cores[c]
        key = (c & 7, (step * 2654435761) & 4095)
        if key in table:
            core.hits += 1
            table[key] += 1
        else:
            table[key] = 1
            if len(table) > 2048:
                del table[next(iter(table))]
        core.time = t + 1 + (step & 3)
        heapq.heappush(heap, (core.time, c))
    return sum(core.hits for core in cores)


#: One tick: about 0.65 ms on an idle 2-vCPU Xeon VM.  Short, frequent
#: ticks follow the host's speed more closely than long, rare ones.
TICK_STEPS = 1_000
#: Ticks take about a tenth of the sampled time.
TICK_EVERY_S = 0.0065


class HostSpeed:
    """Tick durations, sampled from ``SIGALRM`` between start and stop.

    Owns the process's ``SIGALRM`` handler and real-time interval timer.
    Each tick runs with the garbage collector paused, so no collection
    of the sampled program's objects is charged to a tick.
    """

    def __init__(self) -> None:
        #: Start (``perf_counter``) and duration of every tick, in order.
        self.starts: List[float] = []
        self.ticks: List[float] = []
        # The first runs of fresh bytecode are slower until the
        # interpreter has specialised it; keep them out of the samples.
        for _ in range(3):
            reference_work(TICK_STEPS)
        signal.signal(signal.SIGALRM, self.tick)

    def tick(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            reference_work(TICK_STEPS)
            self.ticks.append(time.perf_counter() - began)
            self.starts.append(began)
        finally:
            if enabled:
                gc.enable()

    def between(self, began: float, ended: float) -> List[float]:
        """Durations of the ticks that ran between two ``perf_counter``
        readings.  A tick runs whole between two bytecodes of the main
        thread, so each one falls entirely inside or outside."""
        return self.ticks[
            bisect.bisect_left(self.starts, began):
            bisect.bisect_left(self.starts, ended)
        ]

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
