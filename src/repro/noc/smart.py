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
:class:`~repro.sim.system.System` picks, the fault-free route cache or
the fault injector's detours (see :mod:`repro.noc.route_cache`), under
either drive loop.  Every router's routes are fixed for a run (a
fault-aware router's failure set never changes), so a send binds each
``(src, dst)`` route once, together with the occupancy sets and skip
maps of its links: the hop loop indexes a tuple of sets instead of
hashing a link per hop.  A flit waiting for a segment's first link
crosses each run of busy cycles through that link's skip map
(:mod:`repro.core.occupancy`; a booked cycle stays busy until the drive
loop retires it), not one cycle at a time: near a hot tile, such as the
monolith at the mesh edge, waits run to tens of cycles.  Retiring
empties and refills each link's set and skip map in place, because the
bound routes hold those very objects, and adds the dropped cycles to
the link's running total, so :meth:`SmartNetwork.link_busy_cycles`
stays exact."""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Set, Tuple

from repro.core.occupancy import first_free, retire_below
from repro.noc.mesh import Traversal
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK

#: A bound route: its links in travel order, their occupancy sets and
#: their skip maps.
Bound = Tuple[
    Tuple[Link, ...], Tuple[Set[int], ...], Tuple[Dict[int, int], ...]
]


class SmartNetwork:
    """SMART mesh with HPCmax bypass and conflict-induced stops."""

    def __init__(
        self, topology: MeshTopology, router, hpc_max: int = 8,
        sink=NULL_SINK,
    ) -> None:
        if hpc_max < 1:
            raise ValueError("HPCmax must be at least 1")
        self.topology = topology
        self.hpc_max = hpc_max
        self.sink = sink
        #: Bound event emitter, or None when unobserved — send() then
        #: skips building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        #: The route source: anything with ``path(src, dst)``.
        self.router = router
        self._route = router.path
        #: link -> cycles during which it carries a flit (per-cycle
        #: occupancy; see the reservation note in repro.core.nocstar).
        #: Pre-populated with every topology link, so each link has one
        #: set for every bound route that crosses it to share.
        self._occupied: Dict[Link, Set[int]] = {
            link: set() for link in topology.all_links()
        }
        #: link -> skip map over its occupied cycles, for first-link
        #: waits; built on a link's first bind.
        self._skips: DefaultDict[Link, Dict[int, int]] = defaultdict(dict)
        #: link -> busy cycles retired from its set (see retire()).
        self._retired: Dict[Link, int] = {}
        self._tiles = topology.num_tiles
        #: src * num_tiles + dst -> :data:`Bound`, filled on first use.
        self._bound: Dict[int, Bound] = {}
        self.messages = 0
        self.total_hops = 0
        self.premature_stops = 0
        self.total_queue_cycles = 0

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried a flit (utilization numerator),
        retired cycles included."""
        retired = self._retired
        return {
            link: len(cycles) + retired.get(link, 0)
            for link, cycles in self._occupied.items()
            if cycles or link in retired
        }

    def retire(self, horizon: int) -> None:
        """Drop every link's busy cycles below ``horizon``, which no
        later send probes, counting them into the link's total."""
        retired = self._retired
        skips = self._skips
        for link, cycles in self._occupied.items():
            if cycles:
                dropped = retire_below(horizon, cycles, skips.get(link))
                if dropped:
                    retired[link] = retired.get(link, 0) + dropped

    def _bind(self, src: int, dst: int) -> Bound:
        """Memoise the route ``src -> dst`` with its links' occupancy
        sets and skip maps (a partitioned pair raises and binds
        nothing)."""
        path = tuple(self._route(src, dst))
        bound = self._bound[src * self._tiles + dst] = (
            path,
            tuple(self._occupied[link] for link in path),
            tuple(self._skips[link] for link in path),
        )
        return bound

    def send(self, src: int, dst: int, now: int) -> Traversal:
        path, occupancy, skips = (
            self._bound.get(src * self._tiles + dst) or self._bind(src, dst)
        )
        npath = len(path)
        self.messages += 1
        self.total_hops += npath
        if not npath:
            return Traversal(arrival=now, hops=0)
        # One SSR setup cycle precedes the first data cycle.
        t = now + 1
        queued = 0
        stops = 0
        index = 0
        hpc = self.hpc_max
        while index < npath:
            # A cycle where the segment's first link is busy advances
            # nothing (the flit waits at the router), so fast-forward
            # to the first cycle that can make progress instead of
            # rescanning the segment once per blocked cycle — under
            # heavy contention near the monolithic tile that rescan
            # made send() quadratic in the queueing delay.
            first_occupied = occupancy[index]
            if t in first_occupied:
                free = first_free(t, first_occupied, skips[index])
                queued += free - t
                t = free
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
                occupied = occupancy[i]
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
                src=src, dst=dst, hops=npath, stops=stops, queued=queued,
            )
        # Positional arguments: a NamedTuple built by keyword is slower.
        return Traversal(t, npath, queued, path)
