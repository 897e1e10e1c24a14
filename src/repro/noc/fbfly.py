"""Flattened-butterfly interconnect [ISCA'07], simulatable.

Express links fully connect every row and every column: any
destination is at most two hops away (one X-express, one Y-express).
The wide variant moves a whole packet per link-cycle; the narrow
variant quarters the datapath and pays serialisation on every link —
Table I's FBFly-wide / FBFly-narrow rows.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.occupancy import retire_below
from repro.noc.mesh import Traversal
from repro.noc.topology import MeshTopology

Link = Tuple[int, int]  # (src_tile, dst_tile) express link


class FlattenedButterfly:
    """Row/column express links with per-cycle occupancy."""

    def __init__(
        self,
        topology: MeshTopology,
        narrow: bool = False,
        router_cycles: int = 1,
        wire_cycles: int = 1,
    ) -> None:
        self.topology = topology
        self.narrow = narrow
        #: Narrow links quarter the width: 4 extra cycles of
        #: serialisation per packet (Table I's FBFly-narrow).
        self.serialization_cycles = 4 if narrow else 0
        self.cycles_per_hop = router_cycles + wire_cycles
        self._occupied: Dict[Link, set] = {}
        self.messages = 0
        self.total_hops = 0
        self.total_queue_cycles = 0

    def route(self, src: int, dst: int) -> Tuple[Link, ...]:
        """X-express first, then Y-express: at most two links."""
        sx, sy = self.topology.coords(src)
        dx, dy = self.topology.coords(dst)
        links = []
        here = src
        if sx != dx:
            nxt = self.topology.tile_at(dx, sy)
            links.append((here, nxt))
            here = nxt
        if sy != dy:
            links.append((here, dst))
        return tuple(links)

    def retire(self, horizon: int) -> None:
        """Forget every link's busy cycles below ``horizon``, which no
        later send probes."""
        for occupied in self._occupied.values():
            retire_below(horizon, occupied)

    def _acquire(self, link: Link, when: int, duration: int) -> int:
        occupied = self._occupied.setdefault(link, set())
        start = when
        while any(start + i in occupied for i in range(duration)):
            start += 1
        occupied.update(range(start, start + duration))
        return start

    def send(self, src: int, dst: int, now: int) -> Traversal:
        self.messages += 1
        links = self.route(src, dst)
        if not links:
            return Traversal(arrival=now, hops=0)
        duration = 1 + self.serialization_cycles  # link cycles per packet
        t = now
        queued = 0
        for link in links:
            t += self.cycles_per_hop - 1  # router stage before the link
            start = self._acquire(link, t, duration)
            queued += start - t
            t = start + duration
        self.total_hops += len(links)
        self.total_queue_cycles += queued
        return Traversal(
            arrival=t, hops=len(links), queue_cycles=queued, links=links
        )
