"""The NOCSTAR interconnect: timing, contention, acquisition modes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NocstarConfig, ROUND_TRIP
from repro.core.nocstar import NocstarInterconnect
from repro.noc.route_cache import RouteCache
from repro.noc.topology import MeshTopology


def make(tiles=16, **kw):
    return NocstarInterconnect(MeshTopology(tiles), NocstarConfig(**kw))


def test_local_message_is_immediate():
    ic = make()
    t = ic.send(3, 3, now=10)
    assert t.ready == 10
    assert t.hops == 0 and t.setup_retries == 0


def test_uncontended_remote_is_setup_plus_one_cycle():
    """Fig 10: 1 cycle path setup + 1 cycle traversal, any distance."""
    ic = make(64)
    far = ic.send(0, 63, now=0)  # 14 hops, HPCmax=16
    assert far.ready == 2
    assert far.traversal_cycles == 1


def test_speculative_setup_saves_a_cycle():
    ic = make()
    assert ic.send(0, 5, now=0, speculative_setup=True).ready == 1


def test_hpc_max_pipelining():
    ic = make(64, hpc_max=4)
    t = ic.send(0, 63, now=0)  # 14 hops -> ceil(14/4) = 4 cycles
    assert t.traversal_cycles == 4
    assert t.ready == 5


def test_conflicting_paths_retry():
    ic = make()
    a = ic.send(0, 3, now=0)
    b = ic.send(0, 3, now=0)  # identical path, same cycle
    assert a.setup_retries == 0
    assert b.setup_retries >= 1
    assert b.ready > a.ready


def test_disjoint_paths_no_interference():
    ic = make()
    ic.send(0, 3, now=0)
    t = ic.send(12, 15, now=0)
    assert t.setup_retries == 0


def test_partial_overlap_conflicts():
    ic = make()
    ic.send(0, 2, now=0)  # uses links (0,1),(1,2)
    t = ic.send(1, 3, now=0)  # needs (1,2),(2,3)
    assert t.setup_retries >= 1


def test_out_of_order_requests_do_not_false_conflict():
    """A reservation at cycle 500 must not delay a message at cycle 100
    (the engine's bounded run-ahead produces such orderings)."""
    ic = make()
    ic.send(0, 3, now=500)
    t = ic.send(0, 3, now=100)
    assert t.setup_retries == 0
    assert t.ready == 102


def test_send_over_held_path_is_a_protocol_error():
    """Round-trip holds must be released before the next arbitration —
    a send over a held link can never be satisfied (the release time is
    unknown), so it raises instead of deadlocking."""
    ic = make()
    held = ic.send(0, 3, now=0, hold=True)
    with pytest.raises(RuntimeError, match="held"):
        ic.send(0, 3, now=5)
    ic.release(held.links, at=20)
    free = ic.send(0, 3, now=30)
    assert free.setup_retries == 0


def test_release_backfills_occupancy():
    ic = make()
    held = ic.send(0, 3, now=0, hold=True)
    ic.release(held.links, at=10)
    # A late-arriving message stamped inside the held window still sees it.
    inside = ic.send(0, 3, now=4)
    assert inside.ready >= 10


def test_round_trip_api():
    ic = make(16, acquire=ROUND_TRIP)
    ready, retries = ic.round_trip(0, 5, now=0, service_cycles=9)
    # setup(1) + traverse(1) + service(9) + return traverse(1)
    assert ready == 12
    assert retries == 0


def test_one_way_round_trip_api():
    ic = make(16)
    ready, retries = ic.round_trip(0, 5, now=0, service_cycles=9)
    assert ready == 12  # response setup speculative during the lookup
    assert retries == 0


def test_control_requests_counted_per_retry():
    ic = make()
    ic.send(0, 3, now=0)
    before = ic.control_requests
    blocked = ic.send(0, 3, now=0)
    added = ic.control_requests - before
    assert added == 3 * (blocked.setup_retries + 1)


def test_statistics():
    ic = make()
    ic.send(0, 3, now=0)
    ic.send(0, 3, now=0)
    ic.send(5, 5, now=0)
    assert ic.messages == 3
    assert ic.local_messages == 1
    assert 0 < ic.no_contention_fraction < 1
    assert ic.mean_setup_retries > 0


def test_control_wires_formula():
    ic = make(64)  # 8x8
    assert ic.control_wires_per_core() == (8 - 1) + (8 - 1) * 8


def test_reset_clears_state():
    ic = make()
    ic.send(0, 3, now=0)
    ic.reset()
    assert ic.messages == 0
    assert ic.send(0, 3, now=0).setup_retries == 0


def test_retry_search_checks_every_cycle_of_a_multi_cycle_span():
    """Out-of-order bookings can collide with a span past its first
    cycle, and after a retry jump the whole new span is tested again."""
    ic = make(hpc_max=1)  # 3 hops -> 3-cycle spans
    ic.send(0, 3, now=9)  # busy in cycles 10..12
    ic.send(0, 3, now=13)  # busy in cycles 14..16
    t = ic.send(0, 3, now=7)  # 8..10 hits cycle 10; 11..13 hits 12; ...
    assert (t.ready, t.setup_retries) == (20, 9)  # first free span 17..19


def test_released_hold_overlapping_a_later_reservation_counts_once():
    """Busy cycles are a union per link: a backfilled hold window that
    covers a cycle an out-of-order message already booked counts it once."""
    ic = make()
    later = ic.send(0, 1, now=5)  # link (0, 1) busy in cycle 6
    held = ic.send(0, 1, now=0, hold=True)  # busy in cycle 1, held from 2
    ic.release(held.links, at=10)  # backfills cycles 2..9, over cycle 6
    assert (later.ready, held.ready) == (7, 2)
    assert ic.link_busy_cycles() == {(0, 1): 9}  # cycles 1..9
    ic.reset()
    assert ic.link_busy_cycles() == {}
    assert ic.send(0, 1, now=5).setup_retries == 0


COUNTERS = (
    "messages", "local_messages", "total_hops", "total_setup_retries",
    "uncontended_messages", "control_requests",
)


class PerLinkOracle:
    """Per-link ``Set[int]`` occupancy with cycle-by-cycle setup retries:
    the straightforward model the cycle-indexed store must reproduce."""

    def __init__(self, tiles, hpc_max):
        self.topology = MeshTopology(tiles)
        self.hpc_max = hpc_max
        self.occupied = {}  # link -> cycles carrying data
        self.held = {}  # link -> cycle the hold starts
        self.counts = dict.fromkeys(COUNTERS, 0)

    def send(self, src, dst, now, speculative_setup=False, hold=False):
        counts = self.counts
        counts["messages"] += 1
        if src == dst:
            counts["local_messages"] += 1
            return (now, 0, 0, 0, ())
        path = tuple(self.topology.xy_path(src, dst))
        hops, duration = len(path), -(-len(path) // self.hpc_max)
        earliest = now if speculative_setup else now + 1
        start = earliest
        while any(
            self.occupied.get(link, set()) & set(range(start, start + duration))
            for link in path
        ):
            start += 1
        for link in path:
            self.occupied.setdefault(link, set()).update(
                range(start, start + duration)
            )
            if hold:
                self.held[link] = start + duration
        retries = start - earliest
        counts["control_requests"] += hops * (retries + 1)
        counts["total_hops"] += hops
        counts["total_setup_retries"] += retries
        counts["uncontended_messages"] += retries == 0
        return (start + duration, hops, retries, duration, path)

    def release(self, links, at):
        for link in links:
            self.occupied[link].update(range(self.held.pop(link), at))

    def link_busy_cycles(self):
        return {link: len(cycles) for link, cycles in self.occupied.items()}


send_ops = st.tuples(
    st.integers(min_value=0, max_value=63),  # src (mod tiles)
    st.integers(min_value=0, max_value=63),  # dst (mod tiles)
    st.integers(min_value=0, max_value=40),  # now, drawn out of order
    st.booleans(),  # speculative_setup
    st.one_of(st.none(), st.integers(min_value=1, max_value=30)),  # hold
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((16, 64)),
    st.sampled_from((1, 4, 16)),
    st.lists(send_ops, min_size=20, max_size=80),
)
def test_cycle_indexed_store_matches_per_link_oracle(tiles, hpc_max, ops):
    """Random mixed traffic — out-of-order ``now``, speculative setups,
    round-trip holds released after a service window — resolves to the
    same traversals, counters and busy cycles as the per-link model."""
    for routes in (None, RouteCache(MeshTopology(tiles))):
        ic = NocstarInterconnect(
            MeshTopology(tiles), NocstarConfig(hpc_max=hpc_max), routes=routes
        )
        oracle = PerLinkOracle(tiles, hpc_max)
        for src, dst, now, speculative, service in ops:
            src, dst = src % tiles, dst % tiles
            hold = service is not None
            got = ic.send(src, dst, now, speculative, hold)
            assert tuple(got) == oracle.send(src, dst, now, speculative, hold)
            if hold and got.links:
                at = got.ready + service
                ic.release(got.links, at)
                oracle.release(got.links, at)
        assert {name: getattr(ic, name) for name in COUNTERS} == oracle.counts
        assert ic.link_busy_cycles() == oracle.link_busy_cycles()


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=60,
    )
)
def test_no_two_messages_share_a_link_cycle(messages):
    """Fundamental circuit-switching invariant: each (link, cycle) pair
    carries at most one message."""
    ic = make(16)
    usage = {}
    for src, dst, now in messages:
        t = ic.send(src, dst, now)
        if not t.links:
            continue
        start = t.ready - t.traversal_cycles
        for link in t.links:
            for cycle in range(start, t.ready):
                key = (link, cycle)
                assert key not in usage, "link double-booked"
                usage[key] = (src, dst)


@settings(max_examples=30)
@given(
    st.integers(min_value=2, max_value=64),
    st.data(),
)
def test_ready_time_bounds(n, data):
    """Latency is always >= the uncontended minimum and the traversal
    duration matches ceil(hops / hpc_max)."""
    ic = NocstarInterconnect(MeshTopology(n), NocstarConfig(hpc_max=4))
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = ic.send(src, dst, now=0)
    hops = ic.topology.hops(src, dst)
    expected_dur = -(-hops // 4) if hops else 0
    assert t.traversal_cycles == expected_dur
    if hops:
        assert t.ready >= 1 + expected_dur
