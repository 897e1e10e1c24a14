"""SMART NoC bypass model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.routing import FaultAwareRouter
from repro.noc.mesh import Traversal
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology


def test_rejects_bad_hpc():
    with pytest.raises(ValueError):
        SmartNetwork(MeshTopology(16), hpc_max=0)


def test_uncontended_within_hpc_is_two_cycles():
    smart = SmartNetwork(MeshTopology(64), hpc_max=8)
    t = smart.send(0, 7, now=10)  # 7 hops, one segment
    assert t.arrival == 12  # 1 setup + 1 data cycle


def test_long_path_needs_multiple_segments():
    smart = SmartNetwork(MeshTopology(64), hpc_max=8)
    t = smart.send(0, 63, now=0)  # 14 hops = 2 segments
    # setup + segment + premature-stop relatch + segment
    assert t.arrival >= 3
    assert t.hops == 14


def test_local_message_is_free():
    smart = SmartNetwork(MeshTopology(16))
    assert smart.send(4, 4, 0).arrival == 0


def test_conflict_causes_stop_or_queue():
    smart = SmartNetwork(MeshTopology(16), hpc_max=8)
    a = smart.send(0, 3, now=0)
    b = smart.send(0, 3, now=0)
    assert b.arrival > a.arrival


def test_partial_conflict_premature_stop():
    smart = SmartNetwork(MeshTopology(16), hpc_max=8)
    smart.send(1, 2, now=0)  # occupies link (1,2) at cycle 1
    before = smart.premature_stops
    t = smart.send(0, 3, now=0)  # wants links (0,1),(1,2),(2,3) at cycle 1
    assert smart.premature_stops > before
    assert t.arrival > 2


def test_disjoint_traffic_unaffected():
    smart = SmartNetwork(MeshTopology(16), hpc_max=8)
    smart.send(0, 3, now=0)
    t = smart.send(12, 15, now=0)
    assert t.queue_cycles == 0
    assert smart.total_hops == 6


def test_faster_than_mesh_for_long_paths():
    from repro.noc.mesh import ContentionFreeMesh

    topo = MeshTopology(64)
    smart = SmartNetwork(topo, hpc_max=8)
    mesh = ContentionFreeMesh(topo)
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
        return topology
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
        ),
        st.integers(min_value=0, max_value=40),  # now, drawn out of order
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((16, 64)),
    st.sampled_from((1, 4, 8)),
    st.sampled_from(("cache", "live", "faulty")),
    smart_ops,
)
def test_bound_routes_match_the_per_link_oracle(tiles, hpc_max, kind, ops):
    """Random contended traffic under every router resolves to the same
    traversals, stops, queueing and busy cycles as the per-link send."""
    topology = MeshTopology(tiles)
    router = _router(kind, topology)
    smart = SmartNetwork(topology, hpc_max, router=router)
    oracle = PerLinkSmart(topology, hpc_max, router=router)
    detours = _detours(topology)
    for pair, now in ops:
        if pair in detours:
            src, dst = detours[pair]
        else:
            src, dst = pair[0] % tiles, pair[1] % tiles
        assert smart.send(src, dst, now) == oracle.send(src, dst, now)
    for name in ("messages", "total_hops", "premature_stops",
                 "total_queue_cycles"):
        assert getattr(smart, name) == getattr(oracle, name)
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
