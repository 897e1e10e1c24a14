"""SMART NoC bypass model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.routing import FaultAwareRouter
from repro.noc.mesh import Traversal
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology
from tests.noc.live_xy import LiveXY


def _live_smart(tiles):
    """An 8-hop-per-cycle SMART mesh routing live on XY paths."""
    topology = MeshTopology(tiles)
    return SmartNetwork(topology, LiveXY(topology), hpc_max=8)


def test_rejects_bad_hpc():
    topology = MeshTopology(16)
    with pytest.raises(ValueError):
        SmartNetwork(topology, LiveXY(topology), hpc_max=0)


def test_uncontended_within_hpc_is_two_cycles():
    smart = _live_smart(64)
    t = smart.send(0, 7, now=10)  # 7 hops, one segment
    assert t.arrival == 12  # 1 setup + 1 data cycle


def test_long_path_needs_multiple_segments():
    smart = _live_smart(64)
    t = smart.send(0, 63, now=0)  # 14 hops = 2 segments
    # setup + segment + premature-stop relatch + segment
    assert t.arrival >= 3
    assert t.hops == 14


def test_local_message_is_free():
    smart = _live_smart(16)
    assert smart.send(4, 4, 0).arrival == 0


def test_conflict_causes_stop_or_queue():
    smart = _live_smart(16)
    a = smart.send(0, 3, now=0)
    b = smart.send(0, 3, now=0)
    assert b.arrival > a.arrival


def test_partial_conflict_premature_stop():
    smart = _live_smart(16)
    smart.send(1, 2, now=0)  # occupies link (1,2) at cycle 1
    before = smart.premature_stops
    t = smart.send(0, 3, now=0)  # wants links (0,1),(1,2),(2,3) at cycle 1
    assert smart.premature_stops > before
    assert t.arrival > 2


def test_disjoint_traffic_unaffected():
    smart = _live_smart(16)
    smart.send(0, 3, now=0)
    t = smart.send(12, 15, now=0)
    assert t.queue_cycles == 0
    assert smart.total_hops == 6


def test_faster_than_mesh_for_long_paths():
    from repro.noc.mesh import ContentionFreeMesh

    topo = MeshTopology(64)
    smart = SmartNetwork(topo, LiveXY(topo), hpc_max=8)
    mesh = ContentionFreeMesh(topo, LiveXY(topo))
    assert smart.send(0, 63, 0).arrival < mesh.send(0, 63, 0).arrival


class PerLinkSmart(SmartNetwork):
    """The send as it was before routes were bound: it asks the router
    for the path on every message and finds each hop's occupancy set in
    the per-link dict (kept verbatim as the oracle)."""

    def send(self, src: int, dst: int, now: int) -> Traversal:
        path = self._route(src, dst)
        self.messages += 1
        self.total_hops += len(path)
        if not path:
            return Traversal(arrival=now, hops=0)
        # One SSR setup cycle precedes the first data cycle.
        t = now + 1
        queued = 0
        stops = 0
        index = 0
        occupancy = self._occupied
        hpc = self.hpc_max
        npath = len(path)
        while index < npath:
            first_occupied = occupancy[path[index]]
            while t in first_occupied:
                queued += 1
                t += 1
            end = index + hpc
            if end > npath:
                end = npath
            i = index
            while i < end:
                occupied = occupancy[path[i]]
                if t in occupied:
                    break
                occupied.add(t)
                i += 1
            t += 1  # the bypass segment crosses in one cycle
            if i == end:
                index = end
            else:
                index = i
                # Premature stop: latched at an intermediate router.
                stops += 1
                t += 1  # router traversal + re-arbitration
        self.premature_stops += stops
        self.total_queue_cycles += queued
        if self._event is not None:
            self._event(
                now, "smart_setup",
                src=src, dst=dst, hops=len(path), stops=stops, queued=queued,
            )
        return Traversal(
            arrival=t, hops=len(path), queue_cycles=queued, links=tuple(path)
        )


#: Marks an op that sends to the hot tile, the mesh's last.
HOT = "hot"


def _dead_links(topology):
    """Links whose failure forces both detour tiers: (1, 2) blocks row
    0's XY and YX routes across it (a BFS detour), and row 0's XY
    routes that turn after it (a YX escape); a dead column link adds
    YX escapes from row 1."""
    cols = topology.cols
    return ((1, 2), (cols + 1, 2 * cols + 1))


def _detours(topology):
    """A pair per detour tier under :func:`_dead_links`."""
    return {"bfs": (0, 3), "yx": (0, topology.cols + 2)}


def _router(kind, topology):
    if kind == "cache":
        return shared_route_cache(topology.num_tiles)
    if kind == "live":
        return LiveXY(topology)
    return FaultAwareRouter(topology, _dead_links(topology))


smart_ops = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(
                st.integers(min_value=0, max_value=63),  # src (mod tiles)
                st.integers(min_value=0, max_value=63),  # dst (mod tiles)
            ),
            # Pairs that the fault-aware router detours (see _detours).
            st.sampled_from(("bfs", "yx")),
            # Many sources to one hot tile: waits run to tens of cycles.
            st.tuples(
                st.just(HOT),
                st.integers(min_value=0, max_value=63),  # src (mod tiles)
            ),
        ),
        st.integers(min_value=0, max_value=40),  # now, drawn out of order
    ),
    min_size=20,
    max_size=80,
)


def _pair(op, tiles, detours):
    """The ``(src, dst)`` a drawn op sends between."""
    if op in detours:
        return detours[op]
    if op[0] == HOT:
        return op[1] % tiles, tiles - 1
    return op[0] % tiles, op[1] % tiles


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((16, 64)),
    st.sampled_from((1, 4, 8)),
    st.sampled_from(("cache", "live", "faulty")),
    smart_ops,
)
def test_bound_routes_match_the_per_link_oracle(tiles, hpc_max, kind, ops):
    """Random contended traffic under every router, with a hot
    destination, resolves to the same traversals, stops, queueing and
    busy cycles as the per-link send."""
    topology = MeshTopology(tiles)
    router = _router(kind, topology)
    smart = SmartNetwork(topology, router, hpc_max)
    oracle = PerLinkSmart(topology, router, hpc_max)
    detours = _detours(topology)
    for op, now in ops:
        src, dst = _pair(op, tiles, detours)
        assert smart.send(src, dst, now) == oracle.send(src, dst, now)
    for name in ("messages", "total_hops", "premature_stops",
                 "total_queue_cycles"):
        assert getattr(smart, name) == getattr(oracle, name)
    assert smart.link_busy_cycles() == oracle.link_busy_cycles()


@pytest.mark.parametrize("kind", ["cache", "faulty"])
def test_hot_destination_waits_match_the_per_link_oracle(kind):
    """Three rounds of every tile sending to the hot tile in one cycle
    queue flits for tens of cycles at its links; each wait, crossed
    through the skip maps, equals the cycle-by-cycle oracle's."""
    topology = MeshTopology(64)
    router = _router(kind, topology)
    smart = SmartNetwork(topology, router, 8)
    oracle = PerLinkSmart(topology, router, 8)
    waits = []
    for now in (0, 5, 30):
        for src in range(64):
            got = smart.send(src, 63, now)
            assert got == oracle.send(src, 63, now)
            waits.append(got.queue_cycles)
    assert max(waits) >= 30
    assert smart.total_queue_cycles == oracle.total_queue_cycles
    assert smart.link_busy_cycles() == oracle.link_busy_cycles()


@pytest.mark.parametrize("tiles", [16, 64])
def test_oracle_routers_take_both_detour_tiers(tiles):
    """The oracle test's fault-aware router sends its "bfs" pair on a
    BFS detour and its "yx" pair on the YX escape."""
    topology = MeshTopology(tiles)
    router = _router("faulty", topology)
    detours = _detours(topology)
    src, dst = detours["bfs"]
    assert list(router.path(src, dst)) != topology.yx_path(src, dst)
    assert len(router.path(src, dst)) > topology.hops(src, dst)
    src, dst = detours["yx"]
    assert list(router.path(src, dst)) == topology.yx_path(src, dst)
    assert topology.yx_path(src, dst) != topology.xy_path(src, dst)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((16, 64)),
    st.sampled_from((1, 4, 8)),
    st.sampled_from(("cache", "faulty")),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),  # frontier advance
            st.one_of(
                st.tuples(
                    st.integers(min_value=0, max_value=63),
                    st.integers(min_value=0, max_value=63),
                ),
                st.sampled_from(("bfs", "yx")),
                st.tuples(st.just(HOT), st.integers(min_value=0, max_value=63)),
            ),
            st.integers(min_value=0, max_value=40),  # send's lead
        ),
        min_size=20,
        max_size=80,
    ),
)
def test_retiring_behind_the_frontier_changes_no_send(tiles, hpc_max, kind, ops):
    """Retiring every cycle below a non-decreasing frontier, with each
    send at or after it, leaves the traversals, stops, queueing,
    per-link busy cycles and skip-map waits of a network that never
    retires — and drops what lies behind the frontier."""
    topology = MeshTopology(tiles)
    router = _router(kind, topology)
    retiring = SmartNetwork(topology, router, hpc_max)
    kept = SmartNetwork(topology, router, hpc_max)
    detours = _detours(topology)
    frontier = 0
    for advance, op, lead in ops:
        frontier += advance
        retiring.retire(frontier)
        src, dst = _pair(op, tiles, detours)
        now = frontier + lead
        assert retiring.send(src, dst, now) == kept.send(src, dst, now)
    for name in ("messages", "total_hops", "premature_stops",
                 "total_queue_cycles"):
        assert getattr(retiring, name) == getattr(kept, name)
    assert retiring.link_busy_cycles() == kept.link_busy_cycles()
    retiring.retire(frontier)
    for link, cycles in retiring._occupied.items():
        assert cycles == {c for c in kept._occupied[link] if c >= frontier}
        assert all(c >= frontier for c in retiring._skips.get(link, ()))
    assert retiring.link_busy_cycles() == kept.link_busy_cycles()


def test_retired_link_sets_stay_bound():
    """Retiring empties and refills each link's set in place, so a
    route bound before the retirement still books into its links."""
    smart = _live_smart(16)
    smart.send(0, 3, now=0)
    path, occupancy, _ = smart._bound[3]
    smart.retire(100)
    assert all(occupancy[i] is smart._occupied[link]
               for i, link in enumerate(path))
    smart.send(0, 3, now=100)
    assert smart.link_busy_cycles() == {link: 2 for link in path}
