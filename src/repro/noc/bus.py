"""Shared-bus interconnect (Table I's first row), simulatable.

A single shared medium: every transfer is a chip-wide broadcast that
occupies the whole bus, so latency is excellent when idle and
throughput is one message at a time — the paper rejects it for
bandwidth and (broadcast) power, not latency.  The bus books its
transfer windows in one :class:`~repro.core.occupancy.Bookings`.
"""

from __future__ import annotations

from repro.core.occupancy import Bookings
from repro.noc.mesh import Traversal
from repro.noc.topology import MeshTopology


class BusNetwork:
    """One arbitration domain; per-cycle occupancy (engine-safe)."""

    #: Leakage per tile, mW: wire drivers only.
    TILE_POWER_MW = 0.5

    def __init__(
        self,
        topology: MeshTopology,
        transfer_cycles: int = 2,
    ) -> None:
        if transfer_cycles < 1:
            raise ValueError("a bus transfer takes at least one cycle")
        self.topology = topology
        self.transfer_cycles = transfer_cycles
        self._bookings = Bookings()
        self.messages = 0
        self.total_hops = 0
        self.total_queue_cycles = 0

    def retire(self, horizon: int) -> None:
        """Forget the bus cycles below ``horizon``, which no later
        send probes."""
        self._bookings.retire(horizon)

    def send(self, src: int, dst: int, now: int) -> Traversal:
        """Acquire the bus at the first free window at/after ``now``."""
        self.messages += 1
        if src == dst:
            return Traversal(arrival=now, hops=0)
        start = self._bookings.first_window(now, self.transfer_cycles)
        self._bookings.book(start, self.transfer_cycles)
        queued = start - now
        self.total_queue_cycles += queued
        self.total_hops += 1  # a bus transfer is "one hop" of full-chip wire
        return Traversal(
            arrival=start + self.transfer_cycles,
            hops=1,
            queue_cycles=queued,
        )
