"""The multi-hop mesh network model.

:class:`ContentionFreeMesh` is the paper's baseline for the distributed
/ monolithic configurations: "we place enough buffers and links in the
system to prevent link contention" (§IV), so a message deterministically
takes ``hops * (tr + tw)`` cycles.  Studies that *do* want mesh queueing
(Fig 11c's latency-vs-injection comparison) use
:func:`repro.noc.synthetic.run_mesh_traffic`, a cycle-level model of its
own.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.faults.routing import UnreachableError
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


class Traversal(NamedTuple):
    """Outcome of sending one message.

    A NamedTuple rather than a dataclass: one is built per message on
    the simulator's hottest paths, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    arrival: int
    hops: int
    queue_cycles: int = 0
    links: Tuple[Link, ...] = ()


class ContentionFreeMesh:
    """Deterministic mesh: tr + tw cycles per hop, no queueing."""

    def __init__(
        self,
        topology: MeshTopology,
        router_cycles: int = 1,
        wire_cycles: int = 1,
        sink=NULL_SINK,
        faults=None,
        routes=None,
    ) -> None:
        self.topology = topology
        self.router_cycles = router_cycles
        self.wire_cycles = wire_cycles
        self.cycles_per_hop = router_cycles + wire_cycles
        self.faults = faults  # Optional[FaultInjector]
        self.routes = routes  # Optional[RouteCache]
        self.messages = 0
        self.total_hops = 0
        #: link -> messages carried; populated only when observed.
        self.link_traversals: Dict[Link, int] = {}
        #: The RouteCache hop rows when ``send`` times every leg from
        #: them as hops x ``cycles_per_hop`` (unobserved, no dead
        #: links), else None.  A caller that times legs from these rows
        #: instead of calling ``send`` counts the messages and hops
        #: itself.
        self.flat_tables = None
        if faults is not None and faults.router.dead:
            # Fault-aware routing subsumes observation: the detour path
            # must be computed anyway, so links are always accounted.
            # Dead links also invalidate the fault-free route cache.
            self.send = self._send_fault_routed  # type: ignore[method-assign]
        elif sink.enabled:
            # Construction-time dispatch, not per-send branching: the
            # unobserved send never pays for XY path computation.
            self.send = self._send_observed  # type: ignore[method-assign]
        elif routes is not None:
            self.flat_tables = routes.hops
            self.send = self._send_cached  # type: ignore[method-assign]

    def send(self, src: int, dst: int, now: int) -> Traversal:
        hops = self.topology.hops(src, dst)
        self.messages += 1
        self.total_hops += hops
        return Traversal(arrival=now + hops * self.cycles_per_hop, hops=hops)

    def _send_cached(self, src: int, dst: int, now: int) -> Traversal:
        """send() off the precomputed fault-free hop table."""
        hops = self.flat_tables[src][dst]
        self.messages += 1
        self.total_hops += hops
        return Traversal(arrival=now + hops * self.cycles_per_hop, hops=hops)

    def _send_observed(self, src: int, dst: int, now: int) -> Traversal:
        """send() plus per-link accounting; timing is identical (the XY
        path length equals the Manhattan hop count)."""
        routes = self.routes
        if routes is not None:
            path = routes.path(src, dst)
        else:
            path = self.topology.xy_path(src, dst)
        for link in path:
            self.link_traversals[link] = self.link_traversals.get(link, 0) + 1
        self.messages += 1
        self.total_hops += len(path)
        return Traversal(
            arrival=now + len(path) * self.cycles_per_hop,
            hops=len(path),
            links=tuple(path),
        )

    def _send_fault_routed(self, src: int, dst: int, now: int) -> Traversal:
        """send() over the fault-aware route around dead links.

        Detours lengthen the path beyond the Manhattan distance, so the
        hop count (and latency) comes from the routed path itself.
        """
        path = self.faults.router.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        for link in path:
            self.link_traversals[link] = self.link_traversals.get(link, 0) + 1
        self.messages += 1
        self.total_hops += len(path)
        return Traversal(
            arrival=now + len(path) * self.cycles_per_hop,
            hops=len(path),
            links=tuple(path),
        )

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link's wire carried a flit (observed runs only)."""
        return {
            link: count * self.wire_cycles
            for link, count in self.link_traversals.items()
        }
