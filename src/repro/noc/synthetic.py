"""Cycle-accurate synthetic-traffic evaluation of the TLB interconnects.

Reproduces Fig 11(c): uniform-random traffic is injected into a 64-tile
system at a configurable rate; we measure the average message latency
in NOCSTAR versus a multi-hop mesh, and the fraction of NOCSTAR
messages that acquire their full path on the first arbitration attempt
("no contention delay").

NOCSTAR here is simulated cycle-by-cycle with real per-link arbiters —
rotating static priority, all-links-or-nothing grants — rather than the
reservation shortcut the system DES uses, so this module doubles as a
validation reference for :class:`repro.core.nocstar.NocstarInterconnect`.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.link_arbiter import LinkArbiter
from repro.noc.topology import Link, MeshTopology


@dataclass
class _Message:
    birth: int
    src: int
    dst: int
    path: Tuple[Link, ...]
    attempts: int = 0


@dataclass(frozen=True)
class TrafficResult:
    """Aggregate statistics of one synthetic-traffic run."""

    injection_rate: float
    delivered: int
    mean_latency: float
    no_contention_fraction: float
    mean_attempts: float


def check_traffic_inputs(cycles: int, hpc_max: int = 1) -> None:
    """Reject a sweep length or HPCmax that no sweep can run."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1 (got {cycles})")
    if hpc_max < 1:
        raise ValueError(f"hpc_max must be >= 1 (got {hpc_max})")


def _generate_offered_traffic(
    topology: MeshTopology, cycles: int, rate: float, seed: int
) -> List[List[Tuple[int, int]]]:
    """Per-cycle list of (src, dst) injections under Bernoulli arrivals."""
    rng = random.Random(seed)
    offered: List[List[Tuple[int, int]]] = [[] for _ in range(cycles)]
    n = topology.num_tiles
    for cycle in range(cycles):
        for src in range(n):
            if rng.random() < rate:
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
                offered[cycle].append((src, dst))
    return offered


def run_nocstar_traffic(
    topology: MeshTopology,
    injection_rate: float,
    cycles: int = 4000,
    hpc_max: int = 16,
    seed: int = 7,
    rotation_cycles: int = 1000,
) -> TrafficResult:
    """Cycle-accurate NOCSTAR under uniform-random injection.

    Each cycle, every source with a pending message sends setup requests
    to all link arbiters on its XY path; a message traverses (in
    ceil(hops/HPCmax) cycles) only if it wins *every* arbitration, else
    it retries next cycle.  Ideal latency is 2 cycles: one setup, one
    traversal.
    """
    check_traffic_inputs(cycles, hpc_max)
    offered = _generate_offered_traffic(topology, cycles, injection_rate, seed)
    arbiters: Dict[Link, LinkArbiter] = {}
    busy_until: Dict[Link, int] = {}
    queues: List[List[_Message]] = [[] for _ in range(topology.num_tiles)]
    latencies: List[int] = []
    first_try = 0
    attempts_total = 0

    for cycle in range(cycles):
        for src, dst in offered[cycle]:
            queues[src].append(
                _Message(cycle, src, dst, tuple(topology.xy_path(src, dst)))
            )
        # Heads of line arbitrate this cycle (one outstanding setup/core).
        contenders = [queue[0] for queue in queues if queue]
        requests: Dict[Link, List[int]] = {}
        eligible = []
        for msg in contenders:
            msg.attempts += 1
            if all(busy_until.get(link, -1) <= cycle for link in msg.path):
                eligible.append(msg)
                for link in msg.path:
                    requests.setdefault(link, []).append(msg.src)
        grants: Dict[Link, Optional[int]] = {}
        for link, sources in requests.items():
            arbiter = arbiters.get(link)
            if arbiter is None:
                arbiter = arbiters[link] = LinkArbiter(
                    topology.num_tiles, rotation_cycles
                )
            grants[link] = arbiter.grant(cycle, sources)
        for msg in eligible:
            if all(grants[link] == msg.src for link in msg.path):
                duration = -(-len(msg.path) // hpc_max)
                for link in msg.path:
                    busy_until[link] = cycle + duration
                ready = cycle + 1 + duration
                latencies.append(ready - msg.birth)
                attempts_total += msg.attempts
                if msg.attempts == 1:
                    first_try += 1
                queues[msg.src].remove(msg)

    delivered = len(latencies)
    return TrafficResult(
        injection_rate=injection_rate,
        delivered=delivered,
        mean_latency=sum(latencies) / delivered if delivered else float("inf"),
        no_contention_fraction=first_try / delivered if delivered else 0.0,
        mean_attempts=attempts_total / delivered if delivered else float("inf"),
    )


def run_mesh_traffic(
    topology: MeshTopology,
    injection_rate: float,
    cycles: int = 4000,
    router_cycles: int = 1,
    wire_cycles: int = 1,
    seed: int = 7,
) -> TrafficResult:
    """Multi-hop mesh reference: per-link FIFO queueing, tr+tw per hop."""
    check_traffic_inputs(cycles)
    offered = _generate_offered_traffic(topology, cycles, injection_rate, seed)
    per_hop = router_cycles + wire_cycles
    link_free: Dict[Link, int] = {}
    latencies: List[int] = []
    unqueued = 0
    events: List[Tuple[int, int, int, Tuple[Link, ...], int, bool]] = []
    seq = 0
    for cycle, injections in enumerate(offered):
        for src, dst in injections:
            path = tuple(topology.xy_path(src, dst))
            events.append((cycle, seq, cycle, path, 0, True))
            seq += 1
    heapq.heapify(events)
    while events:
        time, _, birth, path, hop, fresh = heapq.heappop(events)
        link = path[hop]
        start = max(time, link_free.get(link, 0))
        queued_here = start > time
        link_free[link] = start + per_hop
        done = start + per_hop
        if hop + 1 < len(path):
            heapq.heappush(
                events, (done, seq, birth, path, hop + 1, fresh and not queued_here)
            )
            seq += 1
        else:
            latencies.append(done - birth)
            if fresh and not queued_here:
                unqueued += 1
    delivered = len(latencies)
    return TrafficResult(
        injection_rate=injection_rate,
        delivered=delivered,
        mean_latency=sum(latencies) / delivered if delivered else float("inf"),
        no_contention_fraction=unqueued / delivered if delivered else 0.0,
        mean_attempts=1.0,
    )
