"""The multi-hop mesh network model.

:class:`ContentionFreeMesh` is the paper's baseline for the distributed
/ monolithic configurations: "we place enough buffers and links in the
system to prevent link contention" (§IV), so a message deterministically
takes ``hops * (tr + tw)`` cycles.  Studies that *do* want mesh queueing
(Fig 11c's latency-vs-injection comparison) use
:func:`repro.noc.synthetic.run_mesh_traffic`, a cycle-level model of its
own.

Paths come from the one ``router`` (``path(src, dst)``) that
:class:`~repro.sim.system.System` picks: see
:mod:`repro.noc.route_cache`.  A mesh built without one routes live on
the topology's XY paths.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.noc.route_cache import RouteCache
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
        router=None,
    ) -> None:
        self.topology = topology
        self.router_cycles = router_cycles
        self.wire_cycles = wire_cycles
        self.cycles_per_hop = router_cycles + wire_cycles
        #: The route source; None means the topology's live XY routes.
        self.router = router or topology
        self.messages = 0
        self.total_hops = 0
        #: link -> messages carried; populated by the path send only.
        self.link_traversals: Dict[Link, int] = {}
        #: The RouteCache hop rows when ``send`` times every leg from
        #: them as hops x ``cycles_per_hop`` (unobserved, fault-free
        #: routes), else None.  A caller that times legs from these rows
        #: instead of calling ``send`` counts the messages and hops
        #: itself.
        self.flat_tables = None
        if isinstance(self.router, RouteCache) and not sink.enabled:
            self.flat_tables = self.router.hops
        else:
            # Construction-time dispatch: only observed runs, detours
            # and live routes walk a path.
            self.send = self._send_observed  # type: ignore[method-assign]

    def send(self, src: int, dst: int, now: int) -> Traversal:
        """Send off the fault-free hop table."""
        hops = self.flat_tables[src][dst]
        self.messages += 1
        self.total_hops += hops
        return Traversal(arrival=now + hops * self.cycles_per_hop, hops=hops)

    def _send_observed(self, src: int, dst: int, now: int) -> Traversal:
        """Send along ``router.path`` with per-link accounting; the hop
        count is the path's length (longer than Manhattan on a detour)."""
        path = self.router.path(src, dst)
        for link in path:
            self.link_traversals[link] = self.link_traversals.get(link, 0) + 1
        self.messages += 1
        self.total_hops += len(path)
        return Traversal(
            arrival=now + len(path) * self.cycles_per_hop,
            hops=len(path),
            links=tuple(path),
        )

    #: Former names of the two bodies above, still listed as wrap
    #: targets by benchmarks/e2e/layers.py; never dispatched to.
    _send_cached = send
    _send_fault_routed = _send_observed

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link's wire carried a flit (path sends only)."""
        return {
            link: count * self.wire_cycles
            for link, count in self.link_traversals.items()
        }
