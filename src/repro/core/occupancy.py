"""Per-cycle bookings: skip maps over busy cycles, and their retirement.

A SMART link that carries a flit in a cycle, or a slice port set whose
every port starts an access in a cycle, stays busy in that cycle until
the cycle is retired (below).  So beside its busy cycles such a
resource can keep a skip map — a busy cycle -> a later cycle, every
cycle between them busy too — whose entries never go stale, and a wait
crosses a run of busy cycles in one step per run instead of one per
cycle.

No send or reservation probes a cycle below the drive loop's frontier
(scheduled storms and shootdowns aside, which is why the reference loop
lowers its horizon to the next of them), so the engine periodically
retires every booking below that horizon: :func:`retire_below` drops
those cycles from a store and its skip map in place, and the store adds
the count to its running totals.
"""

from __future__ import annotations

from typing import Container, Dict, Optional


def first_free(cycle: int, busy: Container[int], skip: Dict[int, int]) -> int:
    """The first cycle from ``cycle`` on that is not in ``busy``.

    Runs of busy cycles are crossed through ``skip``, and every busy
    cycle passed is then pointed at the free cycle found (path
    compression), so a later wait that starts inside the same run
    crosses it in one step.
    """
    passed = []
    while cycle in busy:
        passed.append(cycle)
        cycle = skip.get(cycle, cycle + 1)
    for full in passed:
        skip[full] = cycle
    return cycle


def retire_below(
    horizon: int, busy, skip: Optional[Dict[int, int]] = None
) -> int:
    """Drop every cycle below ``horizon`` from ``busy`` (a set of cycles,
    or a dict keyed by cycle) and from its skip map; return how many
    cycles ``busy`` lost.

    Both are emptied and refilled in place, so holders of the same
    objects (SMART's bound routes) see the retirement, and the hash
    tables shrink to the kept entries.  A skip entry points forward
    over busy cycles, so one at or above ``horizon`` stays exact.
    """
    kept = [cycle for cycle in busy if cycle >= horizon]
    dropped = len(busy) - len(kept)
    if dropped:
        if isinstance(busy, dict):
            kept = [(cycle, busy[cycle]) for cycle in kept]
        busy.clear()
        busy.update(kept)
        if skip:
            ahead = [
                (cycle, to) for cycle, to in skip.items() if cycle >= horizon
            ]
            skip.clear()
            skip.update(ahead)
    return dropped
