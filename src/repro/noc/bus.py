"""Shared-bus interconnect (Table I's first row), simulatable.

A single shared medium: every transfer is a chip-wide broadcast that
occupies the whole bus, so latency is excellent when idle and
throughput is one message at a time — the paper rejects it for
bandwidth and (broadcast) power, not latency.
"""

from __future__ import annotations

from typing import Dict

from repro.noc.mesh import Traversal
from repro.noc.topology import MeshTopology


class BusNetwork:
    """One arbitration domain; per-cycle occupancy (engine-safe)."""

    def __init__(
        self,
        topology: MeshTopology,
        transfer_cycles: int = 2,
    ) -> None:
        if transfer_cycles < 1:
            raise ValueError("a bus transfer takes at least one cycle")
        self.topology = topology
        self.transfer_cycles = transfer_cycles
        self._busy: Dict[int, bool] = {}
        self.messages = 0
        self.total_hops = 0
        self.total_queue_cycles = 0

    def _free(self, start: int) -> bool:
        return all(
            start + i not in self._busy for i in range(self.transfer_cycles)
        )

    def send(self, src: int, dst: int, now: int) -> Traversal:
        """Acquire the bus at the first free window at/after ``now``."""
        self.messages += 1
        if src == dst:
            return Traversal(arrival=now, hops=0)
        start = now
        while not self._free(start):
            start += 1
        for i in range(self.transfer_cycles):
            self._busy[start + i] = True
        queued = start - now
        self.total_queue_cycles += queued
        self.total_hops += 1  # a bus transfer is "one hop" of full-chip wire
        return Traversal(
            arrival=start + self.transfer_cycles,
            hops=1,
            queue_cycles=queued,
        )
