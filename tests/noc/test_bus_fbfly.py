"""Simulatable bus and flattened-butterfly networks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.bus import BusNetwork
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.mesh import Traversal
from repro.noc.topology import MeshTopology


def test_bus_idle_latency():
    bus = BusNetwork(MeshTopology(16))
    t = bus.send(0, 15, now=10)
    assert t.arrival == 12  # 2-cycle transfer, no queueing


def test_bus_serialises_everything():
    bus = BusNetwork(MeshTopology(16))
    a = bus.send(0, 1, now=0)
    b = bus.send(14, 15, now=0)  # disjoint endpoints still queue!
    assert b.arrival == a.arrival + 2
    assert b.queue_cycles == 2


def test_bus_local_message_free():
    bus = BusNetwork(MeshTopology(16))
    assert bus.send(3, 3, 7).arrival == 7


def test_bus_out_of_order_safe():
    bus = BusNetwork(MeshTopology(16))
    bus.send(0, 1, now=100)
    t = bus.send(2, 3, now=0)
    assert t.queue_cycles == 0


def test_bus_validation():
    with pytest.raises(ValueError):
        BusNetwork(MeshTopology(4), transfer_cycles=0)


def test_fbfly_two_hops_max():
    fb = FlattenedButterfly(MeshTopology(64))
    for src, dst in ((0, 63), (7, 56), (0, 7), (0, 56)):
        assert len(fb.route(src, dst)) <= 2


def test_fbfly_wide_latency():
    fb = FlattenedButterfly(MeshTopology(64))
    t = fb.send(0, 63, now=0)  # 2 express hops
    assert t.hops == 2
    assert t.arrival == 4  # 2 x (router + 1-cycle link)


def test_fbfly_narrow_pays_serialization():
    wide = FlattenedButterfly(MeshTopology(64))
    narrow = FlattenedButterfly(MeshTopology(64), narrow=True)
    assert (
        narrow.send(0, 63, 0).arrival
        == wide.send(0, 63, 0).arrival + 2 * 4
    )


def test_fbfly_same_row_single_hop():
    fb = FlattenedButterfly(MeshTopology(64))
    t = fb.send(0, 7, now=0)
    assert t.hops == 1


def test_fbfly_link_contention():
    fb = FlattenedButterfly(MeshTopology(64))
    a = fb.send(0, 7, now=0)
    b = fb.send(0, 7, now=0)  # same express link, same cycle
    assert b.arrival > a.arrival
    assert b.queue_cycles > 0


def test_fbfly_narrow_contention_worse():
    """Narrow links occupy 5 cycles per packet, so back-to-back
    packets queue much longer."""
    wide = FlattenedButterfly(MeshTopology(64))
    narrow = FlattenedButterfly(MeshTopology(64), narrow=True)
    for _ in range(4):
        wq = wide.send(0, 7, now=0).queue_cycles
        nq = narrow.send(0, 7, now=0).queue_cycles
    assert nq > wq


def test_fbfly_local_free():
    fb = FlattenedButterfly(MeshTopology(16))
    assert fb.send(5, 5, 3).arrival == 3


class CycleByCycleBus(BusNetwork):
    """The bus send as it was before it booked through
    :class:`~repro.core.occupancy.Bookings`: a dict of busy cycles,
    scanned one start at a time (kept verbatim as the oracle)."""

    def __init__(self, topology, transfer_cycles=2):
        super().__init__(topology, transfer_cycles)
        self._busy = {}

    def _free(self, start):
        return all(
            start + i not in self._busy for i in range(self.transfer_cycles)
        )

    def retire(self, horizon):
        self._busy = {c: v for c, v in self._busy.items() if c >= horizon}

    def send(self, src, dst, now):
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


class CycleByCycleFbfly(FlattenedButterfly):
    """The flattened-butterfly send as it was before it booked through
    :class:`~repro.core.occupancy.Bookings`: a set of busy cycles per
    link, scanned one start at a time (kept verbatim as the oracle)."""

    def __init__(self, topology, narrow=False):
        super().__init__(topology, narrow)
        self._occupied = {}

    def retire(self, horizon):
        self._occupied = {
            link: {c for c in cycles if c >= horizon}
            for link, cycles in self._occupied.items()
        }

    def _acquire(self, link, when, duration):
        occupied = self._occupied.setdefault(link, set())
        start = when
        while any(start + i in occupied for i in range(duration)):
            start += 1
        occupied.update(range(start, start + duration))
        return start

    def send(self, src, dst, now):
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


def _networks(kind, topology):
    """The network under test and its cycle-by-cycle oracle."""
    if kind == "bus":
        return BusNetwork(topology, 3), CycleByCycleBus(topology, 3)
    narrow = kind == "fbfly-narrow"
    return (
        FlattenedButterfly(topology, narrow),
        CycleByCycleFbfly(topology, narrow),
    )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("bus", "fbfly-wide", "fbfly-narrow")),
    tiles=st.sampled_from((4, 16)),
    ops=st.lists(
        st.tuples(
            st.integers(0, 8),  # frontier advance
            st.integers(0, 15),  # src (mod tiles)
            st.integers(0, 15),  # dst (mod tiles)
            st.integers(0, 25),  # the send's lead over the frontier
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_sends_match_the_cycle_by_cycle_search(kind, tiles, ops):
    """Random contended sends, both networks retiring behind the same
    non-decreasing frontier: every traversal and counter equals the
    cycle-by-cycle search's, and both keep the same booked cycles."""
    topology = MeshTopology(tiles)
    network, oracle = _networks(kind, topology)
    frontier = 0
    for advance, src, dst, lead in ops:
        frontier += advance
        network.retire(frontier)
        oracle.retire(frontier)
        src, dst, now = src % tiles, dst % tiles, frontier + lead
        assert network.send(src, dst, now) == oracle.send(src, dst, now)
    for name in ("messages", "total_hops", "total_queue_cycles"):
        assert getattr(network, name) == getattr(oracle, name)
    if kind == "bus":
        assert network._bookings.cycles == dict.fromkeys(oracle._busy, 1)
    else:
        assert {
            link: set(store.cycles)
            for link, store in network._bookings.items() if store.cycles
        } == {link: cycles for link, cycles in oracle._occupied.items()
              if cycles}
