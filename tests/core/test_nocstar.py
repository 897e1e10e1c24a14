"""The NOCSTAR interconnect: timing, contention, acquisition modes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NocstarConfig, ONE_WAY, ROUND_TRIP
from repro.core.nocstar import NocstarInterconnect
from repro.noc.route_cache import RouteCache
from repro.noc.topology import MeshTopology
from repro.sim import configs as cfg
from repro.sim.engine import simulate
from repro.sim.system import System
from repro.vm.address import PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


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


def _remote_hit(acquire):
    """One uncontended remote L2 hit (core 0 -> slice 5) through the
    System's transaction; returns (stall cycles, the fabric)."""
    system = System(
        cfg.nocstar(
            16, config=NocstarConfig(acquire=acquire), translation_overlap=0.0
        )
    )
    system.shared_l2.insert_page_number(1, PAGE_4K, 5)
    return system.l2_transaction(0, 1, PAGE_4K, 5, now=0), system.network


def test_round_trip_api():
    stall, network = _remote_hit(ROUND_TRIP)
    # setup(1) + traverse(1) + lookup(9) + return traverse on the held
    # path(1): the response needs no second arbitration, so only the
    # request's setup sends control requests (one per link, 2 hops).
    assert stall == 12
    assert network.messages == 2
    assert network.mean_setup_retries == 0
    assert network.control_requests == 2


def test_one_way_round_trip_api():
    stall, network = _remote_hit(ONE_WAY)
    assert stall == 12  # response setup speculative during the lookup
    assert network.messages == 2
    assert network.mean_setup_retries == 0
    assert network.control_requests == 4  # request and response setups
    assert network.no_contention_fraction == 1.0


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
        return (start + duration, hops, retries, duration, path if hold else ())

    def release(self, links, at):
        for link in links:
            self.occupied[link].update(range(self.held.pop(link), at))

    def link_busy_cycles(self):
        return {link: len(cycles) for link, cycles in self.occupied.items()}


send_ops = st.tuples(
    st.integers(min_value=0, max_value=127),  # src (mod tiles)
    st.integers(min_value=0, max_value=127),  # dst (mod tiles)
    st.integers(min_value=0, max_value=40),  # now, drawn out of order
    st.booleans(),  # speculative_setup
    st.one_of(st.none(), st.integers(min_value=1, max_value=30)),  # hold
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((12, 16, 64, 128)),  # 3x4 and 8x16 are not square
    st.sampled_from((1, 4, 16)),
    st.lists(send_ops, min_size=20, max_size=80),
)
def test_cycle_indexed_store_matches_per_link_oracle(tiles, hpc_max, ops):
    """Random mixed traffic — out-of-order ``now``, speculative setups,
    round-trip holds released after a service window — resolves to the
    same traversals, counters and busy cycles as the per-link model."""
    ic = NocstarInterconnect(
        MeshTopology(tiles), NocstarConfig(hpc_max=hpc_max)
    )
    oracle = PerLinkOracle(tiles, hpc_max)
    for src, dst, now, speculative, service in ops:
        src, dst = src % tiles, dst % tiles
        hold = service is not None
        got = ic.send(src, dst, now, speculative, hold)
        assert tuple(got) == oracle.send(src, dst, now, speculative, hold)
        if hold and got.hops:
            at = got.ready + service
            ic.release(got.links, at)
            oracle.release(got.links, at)
    assert {name: getattr(ic, name) for name in COUNTERS} == oracle.counts
    assert ic.link_busy_cycles() == oracle.link_busy_cycles()


class LegacyRoutes:
    """The route builder the memo of small ints replaced, kept verbatim
    (``_route``) as the oracle: per pair, the XY path sliced from link
    runs, its links as a bitmask, and ``ceil(hops / HPCmax)``."""

    def __init__(self, topology, hpc_max):
        self.topology = topology
        self.hpc_max = hpc_max
        rows, cols = topology.rows, topology.cols
        lanes = [
            [(t, t + 1) for t in range(y * cols, (y + 1) * cols - 1)]
            for y in range(rows)
        ] + [
            [(t, t + cols) for t in range(x, (rows - 1) * cols, cols)]
            for x in range(cols)
        ]
        links = []
        self._lanes = []
        for forward in lanes:
            backward = [(b, a) for a, b in reversed(forward)]
            self._lanes.append((
                (tuple(forward), len(links)),
                (tuple(backward), len(links) + len(forward)),
            ))
            links += forward + backward
        self._links = tuple(links)
        self._tiles = topology.num_tiles
        self._routes = {}

    def traversal_cycles(self, hops):
        return -(-hops // self.hpc_max) if hops else 0

    def _route(self, key):
        src, dst = divmod(key, self._tiles)
        cols, rows = self.topology.cols, self.topology.rows
        sy, sx = divmod(src, cols)
        dy, dx = divmod(dst, cols)
        path = ()
        mask = 0
        for (forward, backward), here, there, last in (
            (self._lanes[sy], sx, dx, cols - 1),
            (self._lanes[rows + dx], sy, dy, rows - 1),
        ):
            if there > here:
                (run, bit), a, b = forward, here, there
            elif there < here:
                (run, bit), a, b = backward, last - here, last - there
            else:
                continue
            path += run[a:b]
            mask |= ((1 << (b - a)) - 1) << (bit + a)
        route = self._routes[key] = (
            path, mask, self.traversal_cycles(len(path))
        )
        return route


def _check_routes(tiles, pairs):
    """Each pair's send takes the legacy builder's hops and traversal
    and books its mask (one bit per hop, naming exactly the XY path's
    links) in every traversal cycle; the path the memo builds, and the
    circuit a round-trip send holds, are the XY path."""
    topology = MeshTopology(tiles)
    for hpc_max in (3, 16):
        ic = NocstarInterconnect(topology, NocstarConfig(hpc_max=hpc_max))
        assert ic.send.__func__ is NocstarInterconnect.send  # fault-free
        legacy = LegacyRoutes(topology, hpc_max)
        assert ic._links == legacy._links
        for src, dst in pairs:
            path, mask, duration = legacy._route(src * tiles + dst)
            xy = tuple(topology.xy_path(src, dst))
            assert path == xy
            assert bin(mask).count("1") == len(xy) == topology.hops(src, dst)
            bits, decoded = mask, set()
            while bits:
                low = bits & -bits
                decoded.add(ic._links[low.bit_length() - 1])
                bits ^= low
            assert decoded == set(xy)
            ic.reset()
            sent = ic.send(src, dst, now=0)
            assert (sent.hops, sent.traversal_cycles) == (len(path), duration)
            assert sent.links == ()
            booked = {cycle: mask for cycle in range(1, 1 + duration)}
            assert ic._busy == booked
            assert ic._path(ic._route(src * tiles + dst)) == xy
            ic.reset()
            held = ic.send(src, dst, now=0, hold=True)
            assert held.links == xy and ic._busy == booked


@pytest.mark.parametrize("tiles", [1, 2, 3, 6, 7, 12, 16, 64, 128])
def test_every_route_is_its_xy_path_and_mask(tiles):
    """Every pair, on 1xN, 2x3, 3x4, square and 8x16 meshes."""
    _check_routes(tiles, [(s, d) for s in range(tiles) for d in range(tiles)])


@pytest.mark.parametrize("tiles", [512, 1024])
def test_sampled_mega_mesh_routes_are_xy_paths_and_masks(tiles):
    """2,000 seeded pairs on the 16x32 and 32x32 meshes."""
    rng = random.Random(tiles)
    _check_routes(
        tiles,
        [(rng.randrange(tiles), rng.randrange(tiles)) for _ in range(2_000)],
    )


def test_routes_share_the_link_objects_they_cross():
    ic = make(16)  # 4x4

    def path(src, dst):
        return ic._path(ic._route(src * 16 + dst))

    x_leg = path(0, 3)  # (0,1) (1,2) (2,3)
    inner = path(1, 2)  # (1,2)
    corner = path(0, 15)  # (0,1) (1,2) (2,3) (3,7) ...
    y_leg = path(3, 15)  # (3,7) (7,11) (11,15)
    assert x_leg[1] is inner[0]
    assert all(a is b for a, b in zip(x_leg, corner))
    assert all(a is b for a, b in zip(corner[3:], y_leg))


def test_nocstar_run_never_walks_xy_paths_or_the_route_cache(monkeypatch):
    """A cold 64-core run takes every route from the link runs' bits."""
    calls = []
    for owner, name in ((MeshTopology, "xy_path"), (RouteCache, "path")):
        def spy(self, *args, _name=name, _real=getattr(owner, name)):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(owner, name, spy)
    workload = build_multithreaded(
        get_workload("gups"), 64, accesses_per_core=100, seed=3
    )
    result = simulate(cfg.nocstar(64), workload)
    assert result.network["messages"] > 0
    assert calls == []


def test_mega_mesh_route_memo_holds_only_machine_sized_ints(monkeypatch):
    """After a 1,024-tile run, no memoised route keeps a link or a mask
    (up to 3,968 bits wide here): every field fits a machine word."""
    systems = []
    finalize = System.finalize_stats

    def spy(self):
        systems.append(self)
        finalize(self)

    monkeypatch.setattr(System, "finalize_stats", spy)
    workload = build_multithreaded(
        get_workload("graph500"), 1024, accesses_per_core=4, seed=3
    )
    simulate(cfg.build_config("nocstar-1024", 1024), workload)
    (system,) = systems
    routes = system.network._routes
    assert len(routes) > 1_000
    for route in routes.values():
        assert all(type(v) is int and 0 <= v < 2**63 for v in route)


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
        if not t.hops:
            continue
        start = t.ready - t.traversal_cycles
        for link in ic.topology.xy_path(src, dst):
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
