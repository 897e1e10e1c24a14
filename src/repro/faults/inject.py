"""Runtime fault-injection state: the RNG, the router, the counters.

One :class:`FaultInjector` lives for one simulation run (the
:class:`~repro.sim.system.System` creates it from the run's
:class:`~repro.faults.models.FaultPlan` and hands it to the resilient
network models).  It owns:

* the runtime RNG — ``random.Random(plan.seed)``, consumed in the
  engine's deterministic processing order, so the drop sequence of a
  seed is identical across serial, parallel, and cache-replayed runs;
* the :class:`~repro.faults.routing.FaultAwareRouter` with its route
  cache, shared by every fabric and by the shootdown coherence NoC;
* the degradation counters surfaced in ``RunResult.faults``, metric
  counters (``faults.*``), the ``faults.backoff_cycles`` histogram, and
  the ``fault_*`` trace events.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.faults.models import FaultPlan
from repro.faults.routing import FaultAwareRouter
from repro.noc.mesh import coherence_cycles
from repro.noc.topology import MeshTopology
from repro.obs import NULL_SINK


class FaultInjector:
    """Mutable per-run fault state shared by the resilient components."""

    def __init__(
        self,
        plan: FaultPlan,
        topology: MeshTopology,
        sink=NULL_SINK,
    ) -> None:
        if plan.num_tiles != topology.num_tiles:
            raise ValueError(
                f"plan compiled for {plan.num_tiles} tiles, topology has "
                f"{topology.num_tiles}"
            )
        self.plan = plan
        self.topology = topology
        self.sink = sink
        self.router = FaultAwareRouter(topology, plan.failed_links)
        self.rng = random.Random(plan.seed)
        self.failed_slices = frozenset(plan.failed_slices)
        # --- degradation counters ------------------------------------
        self.arbiter_drops = 0
        self.fallback_messages = 0
        self.fallback_hops = 0
        self.degraded_walks = 0
        self.shootdown_drops = 0
        self.shootdown_retries = 0
        self.shootdown_unreachable = 0
        self.walk_slowdown_cycles = 0

    # ------------------------------------------------------------------
    # Stochastic draws (engine-deterministic order)

    def drop_setup(self) -> bool:
        """One transient-arbiter draw for one setup attempt."""
        p = self.plan.arbiter_drop_prob
        return p > 0.0 and self.rng.random() < p

    def record_drop(self, cycle: int, src: int, dst: int, backoff: int) -> None:
        self.arbiter_drops += 1
        self.sink.observe("faults.backoff_cycles", backoff)
        self.sink.event(cycle, "fault_drop", src=src, dst=dst, backoff=backoff)

    # ------------------------------------------------------------------
    # Degradation paths

    def slice_dead(self, tile: int) -> bool:
        return tile in self.failed_slices

    def record_fallback(self, cycle: int, src: int, dst: int, hops: int) -> None:
        self.fallback_messages += 1
        self.fallback_hops += hops
        self.sink.observe("faults.fallback_hops", hops)
        self.sink.event(cycle, "fault_fallback", src=src, dst=dst, hops=hops)

    def record_degraded_walk(self, cycle: int, core: int, home: int) -> None:
        self.degraded_walks += 1
        self.sink.event(cycle, "fault_degraded", core=core, home=home)

    def walk_latency(self, latency: int) -> int:
        """Apply the walker-slowdown model to one walk's latency."""
        scaled = self.plan.scaled_walk_latency(latency)
        self.walk_slowdown_cycles += scaled - latency
        return scaled

    # ------------------------------------------------------------------
    # Shootdown delivery with retry-on-drop

    def shootdown_send(self, src: int, dst: int, now: int) -> Optional[int]:
        """Deliver one shootdown relay/invalidate over the coherence NoC.

        Routes around failed links; each attempt may be transiently
        dropped (detected after a round-trip-ish timeout, retried with
        exponential backoff).  After ``max_retries`` drops the message
        is escalated to the reliable path and delivered — a shootdown
        can never livelock.  Returns the delivery cycle, or ``None``
        when the destination is partitioned away (counted in
        ``shootdown_unreachable``).  The caller does not skip such an
        invalidate: ``System._plain_send`` delivers it at once, so the
        unreachable slice's write port is still booked and its entries
        still dropped (a known quirk, kept for byte identity; see
        ROADMAP "Model fixes").
        """
        path = self.router.route(src, dst)
        if path is None:
            self.shootdown_unreachable += 1
            self.sink.event(now, "fault_degraded", core=src, home=dst)
            return None
        cost = coherence_cycles(len(path))
        t = now
        backoff = 1
        retries = 0
        while retries < self.plan.max_retries and self.drop_setup():
            retries += 1
            self.shootdown_drops += 1
            self.sink.event(
                t, "fault_shootdown_retry", src=src, dst=dst, attempt=retries
            )
            t += cost + backoff  # loss detected, back off, retransmit
            backoff = min(backoff * 2, self.plan.max_backoff)
        self.shootdown_retries += retries
        return t + cost

    # ------------------------------------------------------------------
    # Reporting

    def summary(self) -> Dict[str, int]:
        """The fault summary carried on ``RunResult.faults``."""
        return {
            "failed_links": len(self.plan.failed_links),
            "failed_slices": len(self.plan.failed_slices),
            "arbiter_drops": self.arbiter_drops,
            "fallback_messages": self.fallback_messages,
            "fallback_hops": self.fallback_hops,
            "degraded_walks": self.degraded_walks,
            "shootdown_drops": self.shootdown_drops,
            "shootdown_retries": self.shootdown_retries,
            "shootdown_unreachable": self.shootdown_unreachable,
            "walk_slowdown_cycles": self.walk_slowdown_cycles,
        }

    def publish_metrics(self) -> None:
        """Fold the counters into the metrics sink (end of run)."""
        sink = self.sink
        if not sink.enabled:
            return
        for name, value in self.summary().items():
            if name in ("failed_links", "failed_slices"):
                sink.gauge(f"faults.{name}", value)
            else:
                sink.count(f"faults.{name}", value)
