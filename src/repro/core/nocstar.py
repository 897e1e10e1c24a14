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
cycle, not one test per hop.  A leg's bit offset and length are
arithmetic on its row's or column's run bases
(:meth:`NocstarInterconnect._legs`), so the fabric keeps no per-pair
state: a send builds its mask with two shifts and an OR, and a path (at
most two slices of the link tuple, sharing its link objects) is sliced
only where links are named: a round-trip hold and its release, hold
policing, and the fault injector's dead-link test.  A one-cycle
traversal (every route up to HPCmax hops) is tested with one AND and
booked with one OR in line; only a conflict or a longer span runs the
search, :meth:`NocstarInterconnect._first_free`.

Faults enter at the arbitration alone.  A fabric built with a fault
injector takes every setup through
:meth:`NocstarInterconnect._faulty_setup` (a dead link on the path, a
transient arbiter drop with backoff, the setup timeout and the fallback
over the coherence mesh); the message count, the local short-cut, the
XY legs, the mask, the span and the earliest cycle are one code path
for both.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.config import NocstarConfig, ONE_WAY, ROUND_TRIP
from repro.energy.components import ARBITERS_POWER_MW, SWITCH_POWER_MW
from repro.noc.mesh import coherence_cycles
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


#: Busy masks decoded per block by
#: :meth:`NocstarInterconnect.link_busy_cycles`: at 1,024 tiles a block
#: unpacks to 1,024 x 3,968 link bits, 4 MB of uint8.
_DECODE_BLOCK = 1024


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
    """Discrete-event model of the NOCSTAR TLB network.

    ``faults`` is the run's fault injector, or None.  With one, every
    setup arbitrates through faults (:meth:`_faulty_setup`).
    :class:`~repro.sim.system.System` hands the fabric its injector only
    when dead links or arbiter drops can reach a setup, so any other
    plan keeps the fault-free arbitration and its bytes.
    """

    #: Leakage per tile, mW: the latchless switch and its four link
    #: arbiters (Fig 9).
    TILE_POWER_MW = SWITCH_POWER_MW + ARBITERS_POWER_MW

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
        #: Per row, then per column: the bit of its forward run's first
        #: link, and the bit just past its backward run's last link — so
        #: a leg leaving coordinate ``c`` starts at bit ``forward + c``
        #: or ``backward - c``.
        self._lanes: List[Tuple[int, int]] = []
        for forward in lanes:
            backward = [(b, a) for a, b in reversed(forward)]
            self._lanes.append((len(links), len(links) + 2 * len(forward)))
            links += forward + backward
        self._links: Tuple[Link, ...] = tuple(links)
        self._bit = {link: k for k, link in enumerate(links)}
        self._rows = rows
        #: Per tile: its (row, column).
        self._coords = [divmod(t, cols) for t in range(topology.num_tiles)]
        #: The bits of an n-hop leg, shared by every send.
        self._ones = tuple((1 << n) - 1 for n in range(max(rows, cols)))
        #: Traversal cycles by hop count: ceil(hops / HPCmax).
        self._spans = tuple(
            self.traversal_cycles(hops) for hops in range(rows + cols - 1)
        )
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

    def _legs(self, src: int, dst: int) -> Tuple[int, int, int, int]:
        """The XY path from ``src`` to ``dst`` as two fields of link
        bits: ``(x_offset, x_hops, y_offset, y_hops)``.

        The X leg runs along the source's row to the destination's
        column, then the Y leg along that column; each is the
        ``hops`` bits from ``offset`` on of one run, and an absent leg
        is ``(0, 0)``.
        """
        sy, sx = self._coords[src]
        dy, dx = self._coords[dst]
        lanes = self._lanes
        forward, backward = lanes[sy]
        if dx > sx:
            x_offset, x_hops = forward + sx, dx - sx
        elif dx < sx:
            x_offset, x_hops = backward - sx, sx - dx
        else:
            x_offset = x_hops = 0
        forward, backward = lanes[self._rows + dx]
        if dy > sy:
            y_offset, y_hops = forward + sy, dy - sy
        elif dy < sy:
            y_offset, y_hops = backward - sy, sy - dy
        else:
            y_offset = y_hops = 0
        return x_offset, x_hops, y_offset, y_hops

    def _path(self, src: int, dst: int) -> Tuple[Link, ...]:
        """The XY path from ``src`` to ``dst``: one slice of the links
        per leg."""
        x_offset, x_hops, y_offset, y_hops = self._legs(src, dst)
        links = self._links
        return (
            links[x_offset:x_offset + x_hops]
            + links[y_offset:y_offset + y_hops]
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
        x_offset, x_hops, y_offset, y_hops = self._legs(src, dst)
        ones = self._ones
        mask = ones[x_hops] << x_offset | ones[y_hops] << y_offset
        hops = x_hops + y_hops
        duration = self._spans[hops]
        earliest = now if speculative_setup else now + 1
        if self.faults is not None:
            return self._faulty_setup(
                src, dst, now, earliest, mask, hops, duration, hold
            )
        # A free one-cycle span is one AND; a conflict or a longer span
        # takes the search.
        if duration == 1 and not self._busy.get(earliest, 0) & mask:
            start = earliest
        else:
            start = self._first_free(mask, earliest, duration)
        if self._held_mask & mask:
            self._police_holds(self._path(src, dst), start + duration)
        retries = start - earliest
        links = self._path(src, dst) if hold else ()
        self._reserve(mask, start, duration, hops, retries, links)
        if self._event is not None:
            self._event(
                now, "nocstar_setup",
                src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            )
        return NocstarTraversal(start + duration, hops, retries, duration, links)

    #: Former names of ``send`` (the route-cached and the faulty send),
    #: still listed as wrap targets by benchmarks/e2e/layers.py.
    _send_routed = _send_faulty = send

    def _faulty_setup(
        self,
        src: int,
        dst: int,
        now: int,
        earliest: int,
        mask: int,
        hops: int,
        duration: int,
        hold: bool,
    ) -> NocstarTraversal:
        """:meth:`send`'s arbitration under fault injection, from the
        legs' ``mask`` on.

        Resilience policy: a permanently dead link on the arbiters' XY
        path makes the setup unwinnable, so the message falls back to
        buffered-mesh routing immediately.  Otherwise the setup retries
        through contention (:meth:`_first_free`'s search, one attempt a
        cycle) and through transient arbiter drops (exponential backoff,
        capped at ``max_backoff``); if the grant has not landed within
        ``setup_timeout`` cycles the circuit-switched fabric is
        abandoned and the message falls back too.
        """
        inj = self.faults
        path = self._path(src, dst)
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
            # Every busy cycle the search skips is one failed attempt.
            free = min(self._first_free(mask, start, duration), deadline)
            attempts += free - start
            # A retry polices holds on every attempt; the last one (the
            # won start, else the cycle before the deadline) ends latest.
            if self._held_mask & mask:
                self._police_holds(path, min(free, deadline - 1) + duration)
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
        links = path if hold else ()
        self._reserve(mask, start, duration, hops, retries, links)
        self.sink.event(
            now, "nocstar_setup",
            src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            drops=drops,
        )
        return NocstarTraversal(start + duration, hops, retries, duration, links)

    def _reserve(
        self,
        mask: int,
        start: int,
        duration: int,
        hops: int,
        retries: int,
        held: Tuple[Link, ...],
    ) -> None:
        """Book a won setup's span, hold the ``held`` path (``()`` for
        a one-way send) and charge the setup's attempts."""
        end = start + duration
        busy = self._busy
        busy_at = busy.get
        if duration == 1:
            busy[start] = busy_at(start, 0) | mask
        else:
            for cycle in range(start, end):
                busy[cycle] = busy_at(cycle, 0) | mask
        if held:
            self._held.update(dict.fromkeys(held, end))
            self._held_mask |= mask
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
        is then charged the coherence mesh's cost
        (:func:`~repro.noc.mesh.coherence_cycles`) over the fault-aware
        route.  Returns
        ``links=()`` — no circuit is held, so round-trip hold/release
        bookkeeping is skipped by the existing guards.
        """
        inj = self.faults
        hops = len(inj.router.path(src, dst))
        self.control_requests += xy_hops * attempts
        self.total_setup_retries += attempts
        self.total_hops += hops
        ready = giveup + coherence_cycles(hops)
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
        The masks are decoded in blocks: each block's masks become rows
        of little-endian bytes, unpacked to one bit a column (bit ``k``,
        link ``k``), and the columns summed.
        """
        width = (len(self._links) + 7) // 8
        counts = np.zeros(8 * width, dtype=np.int64)
        masks = list(self._busy.values())
        for first in range(0, len(masks), _DECODE_BLOCK):
            rows = b"".join(
                mask.to_bytes(width, "little")
                for mask in masks[first:first + _DECODE_BLOCK]
            )
            bits = np.unpackbits(
                np.frombuffer(rows, dtype=np.uint8).reshape(-1, width),
                axis=1, bitorder="little",
            )
            counts += bits.sum(axis=0, dtype=np.int64)
        return {
            link: n for link, n in zip(self._links, counts.tolist()) if n
        }

    @property
    def mean_setup_retries(self) -> float:
        sent = self.messages - self.local_messages
        return self.total_setup_retries / sent if sent else 0.0

    @property
    def no_contention_fraction(self) -> float:
        sent = self.messages - self.local_messages
        return self.uncontended_messages / sent if sent else 1.0
