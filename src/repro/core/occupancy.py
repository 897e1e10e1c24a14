"""Skip maps over busy cycles that never free.

A SMART link that carries a flit in a cycle, or a slice port set whose
every port starts an access in a cycle, stays busy in that cycle for
the rest of the run.  So beside its set of busy cycles such a resource
can keep a skip map — a busy cycle -> a later cycle, every cycle
between them busy too — whose entries never go stale, and a wait
crosses a run of busy cycles in one step per run instead of one per
cycle.
"""

from __future__ import annotations

from typing import Container, Dict


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
