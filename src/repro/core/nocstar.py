"""The NOCSTAR interconnect: latchless, circuit-switched, single-cycle.

Datapath (§III-B1): a mux-based latchless switch sits next to each TLB
slice; once every link of the XY path is granted, the message ripples
through all intermediate switches combinationally — up to ``hpc_max``
hops per clock — and is latched only at the destination.

Control path (§III-B2): before the traversal, the source requests every
link of the path from that link's arbiter *in the same cycle*; the
grants are ANDed.  Any missing grant means the whole setup retries next
cycle (no partial paths).  This discrete-event model resolves
contention with per-cycle link reservations: a setup succeeds in the
first cycle all links are simultaneously free, and each failed attempt
is charged one retry cycle and one round of control energy.

Both link-acquisition modes of §V are supported: one-way (request and
response each arbitrate for a single traversal) and round-trip (links
held for the whole remote access and released explicitly).

Reservations live in one cycle-indexed store for the whole fabric —
cycle -> set of links carrying data in that cycle — rather than in
busy-until watermarks: the driving engine resolves cores' misses
slightly out of global time order (bounded by its run-ahead quantum),
and a watermark would make a reservation placed at cycle 5000 block an
unrelated message at cycle 4000.  Only true same-cycle conflicts on a
link cause retries.  Indexing by cycle mirrors the hardware's ANDed
grants: each (src, dst) path is a memoised frozenset of links, so one
setup attempt is one set test per traversal cycle, not one per hop.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import DefaultDict, Dict, FrozenSet, NamedTuple, Set, Tuple

from repro.core.config import NocstarConfig, ONE_WAY, ROUND_TRIP
from repro.core.link_arbiter import control_fanout
from repro.faults.inject import (
    FALLBACK_CYCLES_PER_HOP,
    FALLBACK_INJECTION_CYCLES,
)
from repro.faults.routing import UnreachableError
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK

#: (XY path, its links as a set, uncontended traversal cycles).
Route = Tuple[Tuple[Link, ...], FrozenSet[Link], int]


class NocstarTraversal(NamedTuple):
    """Outcome of one message through the TLB interconnect.

    A NamedTuple for the same reason as :class:`repro.noc.mesh.
    Traversal`: construction sits on the per-message hot path.
    """

    ready: int  # cycle the message is available at the destination
    hops: int
    setup_retries: int
    traversal_cycles: int
    links: Tuple[Link, ...]

    @property
    def contended(self) -> bool:
        return self.setup_retries > 0


class NocstarInterconnect:
    """Discrete-event model of the NOCSTAR TLB network."""

    def __init__(
        self,
        topology: MeshTopology,
        config: NocstarConfig = NocstarConfig(),
        sink=NULL_SINK,
        faults=None,
        routes=None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.sink = sink
        #: Bound event emitter, or None when unobserved — the hot send
        #: paths then skip building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.faults = faults  # Optional[FaultInjector]
        #: Path and duration source: the precomputed fault-free
        #: RouteCache tables, or (None, under the reference engine) the
        #: topology and traversal_cycles.  Arbitration is always live.
        self.routes = routes
        if routes is not None:
            self._cycles = routes.nocstar_cycles(config.hpc_max)
        if faults is not None and (
            faults.router.dead or faults.plan.arbiter_drop_prob > 0.0
        ):
            # Construction-time dispatch: the fault-free hot path stays
            # branch-free and byte-identical to the pre-fault model.
            self.send = self._send_faulty
        #: (src, dst) -> Route, filled on first use.
        self._routes: Dict[Tuple[int, int], Route] = {}
        #: cycle -> links carrying data during that cycle.
        self._busy: DefaultDict[int, Set[Link]] = defaultdict(set)
        #: link -> cycle from which the link is held (round-trip mode).
        self._held: Dict[Link, int] = {}
        self.messages = 0
        self.local_messages = 0
        self.total_hops = 0
        self.total_setup_retries = 0
        self.uncontended_messages = 0
        self.control_requests = 0  # arbiter requests (energy accounting)

    # ------------------------------------------------------------------
    # Datapath

    def traversal_cycles(self, hops: int) -> int:
        """Cycles for the data traversal: ceil(hops / HPCmax)."""
        return -(-hops // self.config.hpc_max) if hops else 0

    def _route(self, src: int, dst: int) -> Route:
        """Build and memoise the :data:`Route` for ``src -> dst``."""
        if self.routes is None:
            path = tuple(self.topology.xy_path(src, dst))
            duration = self.traversal_cycles(len(path))
        else:
            path = self.routes.path(src, dst)
            duration = self._cycles[src][dst]
        route = self._routes[src, dst] = (path, frozenset(path), duration)
        return route

    def send(
        self,
        src: int,
        dst: int,
        now: int,
        speculative_setup: bool = False,
        hold: bool = False,
    ) -> NocstarTraversal:
        """Send one message from tile ``src`` to tile ``dst``.

        ``speculative_setup`` overlaps the path-setup cycle with
        preceding work (the paper sets up the response path during the
        slice lookup, §III-C).  ``hold`` keeps the links reserved until
        :meth:`release` — round-trip acquisition.
        """
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return NocstarTraversal(
                ready=now, hops=0, setup_retries=0, traversal_cycles=0, links=()
            )
        path, links, duration = (
            self._routes.get((src, dst)) or self._route(src, dst)
        )
        earliest = now if speculative_setup else now + 1
        start = earliest
        # Test the candidate span latest cycle first.  On a conflict,
        # skip directly past that cycle: a setup is feasible only once
        # every busy cycle of every path link clears the span, so the
        # jump lands on the same first feasible start the cycle-by-cycle
        # retry would find (and charges the same retries).
        busy_at = self._busy.get
        cycle = start + duration - 1
        while cycle >= start:
            busy = busy_at(cycle)
            if busy is not None and not links.isdisjoint(busy):
                start = cycle + 1
                cycle += duration
            else:
                cycle -= 1
        if self._held:
            self._police_holds(path, start + duration)
        retries = start - earliest
        self._reserve(path, links, start, duration, retries, hold)
        if self._event is not None:
            self._event(
                now, "nocstar_setup",
                src=src, dst=dst, hops=len(path), retries=retries, hold=hold,
            )
        return NocstarTraversal(start + duration, len(path), retries, duration, path)

    #: The route-cached send's former name, still listed as a wrap
    #: target by benchmarks/e2e/layers.py; never dispatched to.
    _send_routed = send

    def _send_faulty(
        self,
        src: int,
        dst: int,
        now: int,
        speculative_setup: bool = False,
        hold: bool = False,
    ) -> "NocstarTraversal":
        """:meth:`send` under fault injection.

        Resilience policy: a permanently dead link on the arbiters' XY
        path makes the setup unwinnable, so the message falls back to
        buffered-mesh routing immediately.  Otherwise the setup loop
        retries through contention (next cycle, as fault-free) and
        through transient arbiter drops (exponential backoff, capped at
        ``max_backoff``); if the grant has not landed within
        ``setup_timeout`` cycles the circuit-switched fabric is
        abandoned and the message falls back too.
        """
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return NocstarTraversal(
                ready=now, hops=0, setup_retries=0, traversal_cycles=0, links=()
            )
        inj = self.faults
        path, links, duration = (
            self._routes.get((src, dst)) or self._route(src, dst)
        )
        hops = len(path)
        earliest = now if speculative_setup else now + 1
        if not inj.router.path_alive(path):
            return self._fallback(src, dst, earliest, hops, attempts=1)
        deadline = earliest + inj.plan.setup_timeout
        start = earliest
        attempts = 0
        drops = 0
        backoff = 1
        while True:
            if start >= deadline:
                return self._fallback(src, dst, start, hops, attempts)
            attempts += 1
            if not self._path_free(path, links, start, duration):
                start += 1  # contention: retry next cycle, as fault-free
                continue
            if inj.drop_setup():
                drops += 1
                inj.record_drop(start, src, dst, backoff)
                start += backoff
                backoff = min(backoff * 2, inj.plan.max_backoff)
                continue
            break
        retries = attempts - 1
        self._reserve(path, links, start, duration, retries, hold)
        self.sink.event(
            now, "nocstar_setup",
            src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            drops=drops,
        )
        return NocstarTraversal(start + duration, hops, retries, duration, path)

    def _reserve(
        self,
        path: Tuple[Link, ...],
        links: FrozenSet[Link],
        start: int,
        duration: int,
        retries: int,
        hold: bool,
    ) -> None:
        """Book a won setup's span and charge its attempts."""
        end = start + duration
        busy = self._busy
        for cycle in range(start, end):
            busy[cycle].update(links)
        if hold:
            self._held.update(dict.fromkeys(path, end))
        hops = len(path)
        # Every setup attempt broadcasts a request to all path arbiters.
        self.control_requests += hops * (retries + 1)
        self.total_hops += hops
        self.total_setup_retries += retries
        if retries == 0:
            self.uncontended_messages += 1

    def _fallback(
        self, src: int, dst: int, giveup: int, xy_hops: int, attempts: int
    ) -> "NocstarTraversal":
        """Deliver over the buffered coherence mesh after abandoning setup.

        The failed attempts still burned control energy; the traversal
        is then charged at buffered-mesh cost (injection plus
        router+wire per hop) over the fault-aware route.  Returns
        ``links=()`` — no circuit is held, so round-trip hold/release
        bookkeeping is skipped by the existing guards.
        """
        inj = self.faults
        path = inj.router.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        hops = len(path)
        self.control_requests += xy_hops * attempts
        self.total_setup_retries += attempts
        self.total_hops += hops
        ready = giveup + FALLBACK_INJECTION_CYCLES + FALLBACK_CYCLES_PER_HOP * hops
        inj.record_fallback(giveup, src, dst, hops)
        return NocstarTraversal(
            ready=ready,
            hops=hops,
            setup_retries=attempts,
            traversal_cycles=ready - giveup,
            links=(),
        )

    def _path_free(
        self,
        path: Tuple[Link, ...],
        links: FrozenSet[Link],
        start: int,
        duration: int,
    ) -> bool:
        """True if every link is free for [start, start+duration)."""
        if self._held:
            self._police_holds(path, start + duration)
        busy_at = self._busy.get
        for cycle in range(start, start + duration):
            busy = busy_at(cycle)
            if busy is not None and not links.isdisjoint(busy):
                return False
        return True

    def _police_holds(self, path: Tuple[Link, ...], end: int) -> None:
        """Raise if a setup ending at ``end`` would cross a held link.

        Arbitrating over a link that is currently *held* (round-trip
        acquisition in flight) is a protocol error: the holder releases
        before the next transaction is issued, so a held link at send
        time means the caller broke the hold/release discipline — and
        waiting for it would never terminate (the release time is not
        yet known).
        """
        held = self._held
        for link in path:
            held_from = held.get(link)
            if held_from is not None and end > held_from:
                raise RuntimeError(
                    f"link {link} is held by an unreleased round-trip "
                    "acquisition; release() it before arbitrating again"
                )

    def release(self, links: Tuple[Link, ...], at: int) -> None:
        """Release round-trip-held links at cycle ``at``.

        The held window is converted into explicit occupancy so that
        slightly out-of-order requests (see class docstring) still see
        the hold."""
        windows: Dict[int, list] = {}
        for link in links:
            held_from = self._held.pop(link, None)
            if held_from is not None:
                windows.setdefault(held_from, []).append(link)
        busy = self._busy
        for held_from, released in windows.items():
            for cycle in range(held_from, at):
                busy[cycle].update(released)

    def round_trip(
        self,
        src: int,
        dst: int,
        now: int,
        service_cycles: int,
    ) -> Tuple[int, int]:
        """Complete remote transaction; returns (response_ready, retries).

        Dispatches on the configured acquisition mode: one-way arbitrates
        separately for request and response (response setup speculative,
        §III-C); round-trip holds the request path's links until the
        response lands.
        """
        if self.config.acquire == ROUND_TRIP:
            request = self.send(src, dst, now, hold=True)
            lookup_done = request.ready + service_cycles
            # The response reuses the held path: no second arbitration.
            response_ready = lookup_done + request.traversal_cycles
            self.release(request.links, response_ready)
            if request.links:
                self.messages += 1  # the response is still a message
                self.total_hops += request.hops
                self.uncontended_messages += 1
            return response_ready, request.setup_retries
        request = self.send(src, dst, now)
        lookup_done = request.ready + service_cycles
        response = self.send(dst, src, lookup_done, speculative_setup=True)
        return response.ready, request.setup_retries + response.setup_retries

    # ------------------------------------------------------------------
    # Introspection

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried data (utilization numerator).

        Round-trip holds still in flight are not counted; every hold is
        released before a run finishes, converting it into occupancy.
        """
        counts: Counter = Counter()
        for links in self._busy.values():
            counts.update(links)
        return dict(counts)

    @property
    def mean_setup_retries(self) -> float:
        sent = self.messages - self.local_messages
        return self.total_setup_retries / sent if sent else 0.0

    @property
    def no_contention_fraction(self) -> float:
        sent = self.messages - self.local_messages
        return self.uncontended_messages / sent if sent else 1.0

    def control_wires_per_core(self) -> int:
        """Fan-out of control wires per core under XY routing."""
        return control_fanout(self.topology.rows, self.topology.cols)

    def reset(self) -> None:
        self._busy.clear()
        self._held.clear()
        self.messages = self.local_messages = 0
        self.total_hops = self.total_setup_retries = 0
        self.uncontended_messages = 0
        self.control_requests = 0
