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
:mod:`repro.noc.route_cache`.  The mesh has one send, which walks the
path and counts every link it crosses.  ``System`` decides when its L2
transaction may instead time the legs from the route cache's hop rows
(fault-free routes, no observer reading the link counts); it then
counts the messages and hops itself.

:func:`coherence_cycles` is the cost of the chip's coherence NoC, the
buffered mesh that carries shootdown relays and invalidates and every
NOCSTAR message that abandons its setup.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.noc.topology import Link, MeshTopology


#: The coherence NoC: one cycle to inject a message, then router +
#: wire per hop.
COHERENCE_INJECTION_CYCLES = 1
COHERENCE_CYCLES_PER_HOP = 2


def coherence_cycles(hops: int) -> int:
    """Cycles one message takes over ``hops`` links of the coherence
    NoC."""
    return COHERENCE_INJECTION_CYCLES + COHERENCE_CYCLES_PER_HOP * hops


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
        router,
        router_cycles: int = 1,
        wire_cycles: int = 1,
    ) -> None:
        self.topology = topology
        self.router_cycles = router_cycles
        self.wire_cycles = wire_cycles
        self.cycles_per_hop = router_cycles + wire_cycles
        #: The route source: anything with ``path(src, dst)``.
        self.router = router
        self.messages = 0
        self.total_hops = 0
        #: link -> messages carried.
        self.link_traversals: Dict[Link, int] = {}

    def send(self, src: int, dst: int, now: int) -> Traversal:
        """Send along ``router.path`` with per-link accounting; the hop
        count is the path's length (longer than Manhattan on a detour)."""
        path = tuple(self.router.path(src, dst))
        traversals = self.link_traversals
        for link in path:
            traversals[link] = traversals.get(link, 0) + 1
        hops = len(path)
        self.messages += 1
        self.total_hops += hops
        return Traversal(now + hops * self.cycles_per_hop, hops, 0, path)

    #: Former names of ``send``, still listed as wrap targets by
    #: benchmarks/e2e/layers.py.
    _send_cached = _send_observed = _send_fault_routed = send

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link's wire carried a flit."""
        return {
            link: count * self.wire_cycles
            for link, count in self.link_traversals.items()
        }
