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
cycle -> bitmask of the links carrying data in that cycle — rather than
in busy-until watermarks: the driving engine resolves cores' misses
slightly out of global time order (bounded by its run-ahead quantum),
and a watermark would make a reservation placed at cycle 5000 block an
unrelated message at cycle 4000.  Only true same-cycle conflicts on a
link cause retries.  Indexing by cycle mirrors the hardware's ANDed
grants: the directed links are numbered run by run (per row an
eastward and a westward run, per column a southward and a northward
run, each in travel order), so every XY leg is one contiguous field of
one run's bits, and one setup attempt is one integer AND per traversal
cycle, not one test per hop.  The per-pair route memo holds only small
ints — hops, traversal cycles, and each leg's run-relative bits and
bit offset — and a send builds the mask with two shifts and an OR: at
1,024 tiles a mask is up to 3,968 bits wide, too big to keep for every
pair.  A route's path (at most two slices of the link tuple, sharing
its link objects) is built only where links are named: a round-trip
hold and its release, hold policing, and the fault injector's
dead-link test.  A one-cycle traversal (every route up to HPCmax hops)
is tested with one AND and booked with one OR in line; only a conflict
or a longer span runs the search, :meth:`NocstarInterconnect._first_free`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.core.config import NocstarConfig, ONE_WAY, ROUND_TRIP
from repro.core.link_arbiter import control_fanout
from repro.faults.inject import (
    FALLBACK_CYCLES_PER_HOP,
    FALLBACK_INJECTION_CYCLES,
)
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK

#: (hops, uncontended traversal cycles, then the X leg's and the Y
#: leg's run-relative bits and bit offset): the path's mask is
#: ``x_bits << x_offset | y_bits << y_offset``, and an absent leg is
#: ``(0, 0)``.
Route = Tuple[int, int, int, int, int, int]


class NocstarTraversal(NamedTuple):
    """Outcome of one message through the TLB interconnect.

    A NamedTuple for the same reason as :class:`repro.noc.mesh.
    Traversal`: construction sits on the per-message hot path.
    """

    ready: int  # cycle the message is available at the destination
    hops: int
    setup_retries: int
    traversal_cycles: int
    #: The held circuit of a round-trip send, for :meth:`release`;
    #: ``()`` for a one-way send and for a fault fallback.
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
    ) -> None:
        self.topology = topology
        self.config = config
        self.sink = sink
        #: Bound event emitter, or None when unobserved — the hot send
        #: paths then skip building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.faults = faults  # Optional[FaultInjector]
        if faults is not None and (
            faults.router.dead or faults.plan.arbiter_drop_prob > 0.0
        ):
            # Construction-time dispatch: the fault-free hot path stays
            # branch-free and byte-identical to the pre-fault model.
            self.send = self._send_faulty
        # Number the links run by run: each row's eastward then
        # westward run, then each column's southward then northward
        # run, in travel order.  Bit k is self._links[k].
        rows, cols = topology.rows, topology.cols
        lanes = [
            [(t, t + 1) for t in range(y * cols, (y + 1) * cols - 1)]
            for y in range(rows)
        ] + [
            [(t, t + cols) for t in range(x, (rows - 1) * cols, cols)]
            for x in range(cols)
        ]
        links: List[Link] = []
        #: Per row, then per column: the bits of its forward and of its
        #: backward run's first link.
        self._lanes: List[Tuple[int, int]] = []
        for forward in lanes:
            backward = [(b, a) for a, b in reversed(forward)]
            self._lanes.append((len(links), len(links) + len(forward)))
            links += forward + backward
        self._links: Tuple[Link, ...] = tuple(links)
        self._bit = {link: k for k, link in enumerate(links)}
        #: Every value a route's leg fields take — the bits of an
        #: n-hop leg, and a bit offset — so that routes share these ints
        #: instead of each holding its own.
        self._ones = tuple((1 << n) - 1 for n in range(max(rows, cols)))
        self._offsets = tuple(range(max(len(links), 1)))
        self._tiles = topology.num_tiles
        #: src * num_tiles + dst -> Route, filled on first use.
        self._routes: Dict[int, Route] = {}
        #: cycle -> mask of the links carrying data during that cycle.
        self._busy: Dict[int, int] = {}
        #: link -> cycle from which the link is held (round-trip mode),
        #: and the held links' mask.
        self._held: Dict[Link, int] = {}
        self._held_mask = 0
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

    def _route(self, key: int) -> Route:
        """Build and memoise the :data:`Route` for ``key``, which is
        ``src * num_tiles + dst``: each XY leg is the bits ``a`` up to
        ``b`` of one run."""
        src, dst = divmod(key, self._tiles)
        cols, rows = self.topology.cols, self.topology.rows
        sy, sx = divmod(src, cols)
        dy, dx = divmod(dst, cols)
        hops = 0
        legs: List[int] = []
        for (forward, backward), here, there, last in (
            (self._lanes[sy], sx, dx, cols - 1),
            (self._lanes[rows + dx], sy, dy, rows - 1),
        ):
            if there > here:
                bit, a, b = forward, here, there
            elif there < here:
                bit, a, b = backward, last - here, last - there
            else:
                bit = a = b = 0
            hops += b - a
            legs += (self._ones[b - a], self._offsets[bit + a])
        route = self._routes[key] = (
            hops, self.traversal_cycles(hops), *legs
        )
        return route

    def _path(self, route: Route) -> Tuple[Link, ...]:
        """The XY path of ``route``: one slice of the links per leg."""
        _, _, x_bits, x_offset, y_bits, y_offset = route
        links = self._links
        return (
            links[x_offset:x_offset + x_bits.bit_length()]
            + links[y_offset:y_offset + y_bits.bit_length()]
        )

    def _first_free(self, mask: int, start: int, duration: int) -> int:
        """First cycle from ``start`` on at which every link in ``mask``
        is free for ``duration`` cycles.  The span is tested latest cycle
        first and a conflict skips past its cycle, landing on the start a
        cycle-by-cycle retry finds (each skipped cycle one attempt)."""
        busy_at = self._busy.get
        cycle = start + duration - 1
        while cycle >= start:
            if busy_at(cycle, 0) & mask:
                start = cycle + 1
                cycle += duration
            else:
                cycle -= 1
        return start

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
        key = src * self._tiles + dst
        route = self._routes.get(key) or self._route(key)
        hops, duration, x_bits, x_offset, y_bits, y_offset = route
        mask = x_bits << x_offset | y_bits << y_offset
        earliest = now if speculative_setup else now + 1
        # A free one-cycle span is one AND; a conflict or a longer span
        # takes the search.
        if duration == 1 and not self._busy.get(earliest, 0) & mask:
            start = earliest
        else:
            start = self._first_free(mask, earliest, duration)
        if self._held_mask & mask:
            self._police_holds(self._path(route), start + duration)
        retries = start - earliest
        links = self._reserve(route, mask, start, retries, hold)
        if self._event is not None:
            self._event(
                now, "nocstar_setup",
                src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            )
        return NocstarTraversal(start + duration, hops, retries, duration, links)

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
        buffered-mesh routing immediately.  Otherwise the setup retries
        through contention (:meth:`send`'s search, one attempt a cycle)
        and through transient arbiter drops (exponential backoff, capped
        at ``max_backoff``); if the grant has not landed within
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
        key = src * self._tiles + dst
        route = self._routes.get(key) or self._route(key)
        hops, duration, x_bits, x_offset, y_bits, y_offset = route
        mask = x_bits << x_offset | y_bits << y_offset
        earliest = now if speculative_setup else now + 1
        if not inj.router.path_alive(self._path(route)):
            return self._fallback(src, dst, earliest, hops, attempts=1)
        deadline = earliest + inj.plan.setup_timeout
        start = earliest
        attempts = 0
        drops = 0
        backoff = 1
        while True:
            if start >= deadline:
                return self._fallback(src, dst, start, hops, attempts)
            # Every busy cycle the search skips is one failed attempt.
            free = min(self._first_free(mask, start, duration), deadline)
            attempts += free - start
            # A retry polices holds on every attempt; the last one (the
            # won start, else the cycle before the deadline) ends latest.
            if self._held_mask & mask:
                self._police_holds(
                    self._path(route), min(free, deadline - 1) + duration
                )
            start = free
            if start == deadline:
                continue
            attempts += 1
            if not inj.drop_setup():
                break
            drops += 1
            inj.record_drop(start, src, dst, backoff)
            start += backoff
            backoff = min(backoff * 2, inj.plan.max_backoff)
        retries = attempts - 1
        links = self._reserve(route, mask, start, retries, hold)
        self.sink.event(
            now, "nocstar_setup",
            src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            drops=drops,
        )
        return NocstarTraversal(start + duration, hops, retries, duration, links)

    def _reserve(
        self, route: Route, mask: int, start: int, retries: int, hold: bool
    ) -> Tuple[Link, ...]:
        """Book a won setup's span and charge its attempts; returns the
        held path, or ``()`` when ``hold`` is off."""
        hops, duration = route[0], route[1]
        end = start + duration
        busy = self._busy
        busy_at = busy.get
        if duration == 1:
            busy[start] = busy_at(start, 0) | mask
        else:
            for cycle in range(start, end):
                busy[cycle] = busy_at(cycle, 0) | mask
        held: Tuple[Link, ...] = ()
        if hold:
            held = self._path(route)
            self._held.update(dict.fromkeys(held, end))
            self._held_mask |= mask
        # Every setup attempt broadcasts a request to all path arbiters.
        self.control_requests += hops * (retries + 1)
        self.total_hops += hops
        self.total_setup_retries += retries
        if retries == 0:
            self.uncontended_messages += 1
        return held

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
        hops = len(inj.router.path(src, dst))
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
        windows: Dict[int, int] = {}  # held_from -> released links' mask
        for link in links:
            held_from = self._held.pop(link, None)
            if held_from is not None:
                windows[held_from] = (
                    windows.get(held_from, 0) | 1 << self._bit[link]
                )
        busy = self._busy
        busy_at = busy.get
        for held_from, released in windows.items():
            self._held_mask &= ~released
            for cycle in range(held_from, at):
                busy[cycle] = busy_at(cycle, 0) | released

    # ------------------------------------------------------------------
    # Introspection

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried data (utilization numerator).

        Round-trip holds still in flight are not counted; every hold is
        released before a run finishes, converting it into occupancy.
        """
        counts = [0] * len(self._links)
        for mask in self._busy.values():
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        return {link: n for link, n in zip(self._links, counts) if n}

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
        self._held_mask = 0
        self.messages = self.local_messages = 0
        self.total_hops = self.total_setup_retries = 0
        self.uncontended_messages = 0
        self.control_requests = 0
