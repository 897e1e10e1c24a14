"""SMART NoC model [HPCA'13], the monolithic configuration's fast NoC.

SMART lets a flit dynamically build a multi-hop bypass path over a
mesh, covering up to HPCmax hops per cycle.  Unlike NOCSTAR's
circuit-switched paths, SMART bypasses are *not guaranteed*: SSR
(SMART-hop setup request) conflicts force the flit to stop and get
latched at an intermediate router, paying a router traversal before
re-arbitrating (§II-F, Table I).

The model reserves the links of each HPC segment; a conflicting link
splits the segment at the conflict point — exactly a SMART "premature
stop".

SSRs follow whatever route the flit is configured with: the ``router``
:class:`~repro.sim.system.System` picks (see :mod:`repro.noc.mesh`)."""

from __future__ import annotations

from typing import Dict

from repro.noc.mesh import Traversal
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


class SmartNetwork:
    """SMART mesh with HPCmax bypass and conflict-induced stops."""

    def __init__(
        self, topology: MeshTopology, hpc_max: int = 8, sink=NULL_SINK,
        router=None,
    ) -> None:
        if hpc_max < 1:
            raise ValueError("HPCmax must be at least 1")
        self.topology = topology
        self.hpc_max = hpc_max
        self.sink = sink
        #: Bound event emitter, or None when unobserved — send() then
        #: skips building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        #: The route source; None means the topology's live XY routes.
        self.router = router or topology
        self._route = self.router.path
        #: link -> cycles during which it carries a flit (per-cycle
        #: occupancy; see the reservation note in repro.core.nocstar).
        #: Pre-populated with every topology link so the hot send loop
        #: can use plain indexing (no setdefault, no None checks).
        self._occupied: Dict[Link, set] = {
            link: set() for link in topology.all_links()
        }
        self.messages = 0
        self.total_hops = 0
        self.premature_stops = 0
        self.total_queue_cycles = 0

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried a flit (utilization numerator)."""
        return {
            link: len(cycles)
            for link, cycles in self._occupied.items()
            if cycles
        }

    def send(self, src: int, dst: int, now: int) -> Traversal:
        path = self._route(src, dst)
        self.messages += 1
        self.total_hops += len(path)
        if not path:
            return Traversal(arrival=now, hops=0)
        # One SSR setup cycle precedes the first data cycle.
        t = now + 1
        queued = 0
        stops = 0
        index = 0
        occupancy = self._occupied
        hpc = self.hpc_max
        npath = len(path)
        while index < npath:
            # A cycle where the segment's first link is busy advances
            # nothing (the flit waits at the router), so fast-forward
            # to the first cycle that can make progress instead of
            # rescanning the segment once per blocked cycle — under
            # heavy contention near the monolithic tile that rescan
            # made send() quadratic in the queueing delay.
            first_occupied = occupancy[path[index]]
            while t in first_occupied:
                queued += 1
                t += 1
            end = index + hpc
            if end > npath:
                end = npath
            # The bypass extends as far as contiguous free links allow;
            # advanced links are reserved as the scan passes them (they
            # are traversed this cycle even on a premature stop), so
            # check and reservation share one loop — the model's
            # innermost.
            i = index
            while i < end:
                occupied = occupancy[path[i]]
                if t in occupied:
                    break
                occupied.add(t)
                i += 1
            t += 1  # the bypass segment crosses in one cycle
            if i == end:
                index = end
            else:
                index = i
                # Premature stop: latched at an intermediate router.
                stops += 1
                t += 1  # router traversal + re-arbitration
        self.premature_stops += stops
        self.total_queue_cycles += queued
        if self._event is not None:
            self._event(
                now, "smart_setup",
                src=src, dst=dst, hops=len(path), stops=stops, queued=queued,
            )
        return Traversal(
            arrival=t, hops=len(path), queue_cycles=queued, links=tuple(path)
        )
