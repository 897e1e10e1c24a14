"""Per-cycle bookings: the one store behind every link and port that
serves a fixed number of accesses per cycle.

A SMART link, a bus, a flattened-butterfly link (one transfer a cycle)
and a slice's read or write port set (one new access per port a cycle,
§IV) all book *which cycles* they serve, not a busy-until watermark:
the engine resolves misses slightly out of global time order, and a
watermark would let a booking at cycle 5000 block a message at cycle
4000.  :class:`Bookings` is that store.  NOCSTAR keeps its own
fabric-wide cycle -> link-mask store instead (DESIGN.md says why).

``cycles`` is a plain dict, cycle -> accesses started in it, that the
hot loops bind and probe themselves (``t in cycles``,
``cycles.get(t, 0)``); a ``dict`` subclass would lose CPython's
exact-dict fast paths there.  A cycle holding ``capacity`` starts is
full, and stays full until it is retired, so beside it the store keeps
a skip map — a full cycle -> a later cycle, every cycle between them
full too — whose entries never go stale: a wait crosses a run of full
cycles in one step per run instead of one per cycle.

No send or reservation probes a cycle below the drive loop's frontier
(scheduled storms and shootdowns aside, which is why the reference loop
lowers its horizon to the next of them), so the engine periodically
calls :meth:`Bookings.retire`, which drops every booking below the
horizon in place and adds the dropped cycles to ``retired``, keeping
:attr:`Bookings.busy_cycles` exact.
"""

from __future__ import annotations

from typing import Dict


class Bookings:
    """The cycles a resource serving ``capacity`` accesses per cycle
    has booked, with a skip map over its full cycles."""

    __slots__ = ("capacity", "cycles", "skip", "retired")

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("a resource serves at least one access a cycle")
        self.capacity = capacity
        #: cycle -> accesses started in it (never 0).
        self.cycles: Dict[int, int] = {}
        #: Full cycle -> a later cycle, every cycle between them full.
        self.skip: Dict[int, int] = {}
        #: Booked cycles dropped by :meth:`retire`.
        self.retired = 0

    @property
    def busy_cycles(self) -> int:
        """Cycles with at least one booking, retired ones included."""
        return len(self.cycles) + self.retired

    def first_free(self, cycle: int) -> int:
        """The first cycle from ``cycle`` on that is not full.

        Runs of full cycles are crossed through the skip map, and every
        full cycle passed is then pointed at the free cycle found (path
        compression), so a later wait that starts inside the same run
        crosses it in one step.
        """
        cycles = self.cycles
        capacity = self.capacity
        skip = self.skip
        passed = []
        while cycles.get(cycle, 0) >= capacity:
            passed.append(cycle)
            cycle = skip.get(cycle, cycle + 1)
        for full in passed:
            skip[full] = cycle
        return cycle

    def first_window(self, cycle: int, duration: int) -> int:
        """The first cycle from ``cycle`` on that starts ``duration``
        consecutive cycles none of which is full.

        A full cycle inside a candidate window rules out every start up
        to it, so the search resumes at the first free cycle past it:
        the start a cycle-by-cycle scan finds, in one step per run.
        """
        cycles = self.cycles
        capacity = self.capacity
        start = self.first_free(cycle)
        offset = 1
        while offset < duration:
            if cycles.get(start + offset, 0) >= capacity:
                start = self.first_free(start + offset + 1)
                offset = 1
            else:
                offset += 1
        return start

    def book(self, cycle: int, duration: int = 1) -> None:
        """Start one access in each of ``duration`` cycles from
        ``cycle`` on (the caller found them free)."""
        cycles = self.cycles
        for booked in range(cycle, cycle + duration):
            cycles[booked] = cycles.get(booked, 0) + 1

    def retire(self, horizon: int) -> None:
        """Drop every booking below ``horizon``, which no later probe
        reaches, counting the dropped cycles into ``retired``.

        ``cycles`` and the skip map are emptied and refilled in place,
        so holders of the same dicts (SMART's bound routes) see the
        retirement, and the hash tables shrink to the kept entries.  A
        skip entry points forward over full cycles, so one at or above
        ``horizon`` stays exact.
        """
        cycles = self.cycles
        kept = {cycle: n for cycle, n in cycles.items() if cycle >= horizon}
        dropped = len(cycles) - len(kept)
        if dropped:
            self.retired += dropped
            cycles.clear()
            cycles.update(kept)
            skip = self.skip
            if skip:
                ahead = {
                    cycle: to for cycle, to in skip.items() if cycle >= horizon
                }
                skip.clear()
                skip.update(ahead)
