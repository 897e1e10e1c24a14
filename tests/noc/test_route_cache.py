"""Property tests for the precomputed RouteCache tables.

The cache claims its tables are pure functions of the topology — every
entry must agree with what the models compute per send on live XY
routes — and a network handed the fault-aware router sends along its
detours instead, or refuses a partitioned pair.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nocstar import NocstarInterconnect
from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.faults.routing import FaultAwareRouter, UnreachableError
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import RouteCache, shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology
from tests.noc.live_xy import LiveXY

tile_counts = st.integers(min_value=2, max_value=64)


def _pair(data, n):
    src = data.draw(st.integers(min_value=0, max_value=n - 1), label="src")
    dst = data.draw(st.integers(min_value=0, max_value=n - 1), label="dst")
    return src, dst


@settings(max_examples=40)
@given(tile_counts, st.data())
def test_cached_hops_and_paths_match_topology(n, data):
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    src, dst = _pair(data, n)
    assert cache.hops[src][dst] == topo.hops(src, dst)
    path = cache.path(src, dst)
    assert list(path) == list(topo.xy_path(src, dst))
    assert len(path) == cache.hops[src][dst]
    # Memoised: the same tuple object comes back.
    assert cache.path(src, dst) is path


@settings(max_examples=30)
@given(tile_counts, st.integers(min_value=1, max_value=6), st.data())
def test_cached_mesh_send_equals_live_mesh_send(n, cycles_per_hop, data):
    """A mesh on the cache sends as one on live XY routes, link counts
    included, and the hop rows give the latency ``System`` times legs
    from without sending."""
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    live = ContentionFreeMesh(
        topo, LiveXY(topo), router_cycles=cycles_per_hop - 1 or 1,
        wire_cycles=1,
    )
    cached = ContentionFreeMesh(
        topo, cache, router_cycles=live.router_cycles,
        wire_cycles=live.wire_cycles,
    )
    src, dst = _pair(data, n)
    now = data.draw(st.integers(min_value=0, max_value=10_000), label="now")
    walked = live.send(src, dst, now)
    assert cached.send(src, dst, now) == walked
    assert walked.links == cache.path(src, dst)
    assert cached.link_traversals == live.link_traversals
    latency = cache.hops[src][dst] * live.cycles_per_hop
    assert type(latency) is int
    assert latency == walked.arrival - now
    assert cache.hops[src][dst] == walked.hops


@settings(max_examples=30)
@given(tile_counts, st.data())
def test_cached_smart_send_equals_live_smart_send(n, data):
    topo = MeshTopology(n)
    src, dst = _pair(data, n)
    now = data.draw(st.integers(min_value=0, max_value=10_000), label="now")
    # Fresh networks per draw: one uncontended send each, so the only
    # difference can come from the route source.
    live = SmartNetwork(topo, LiveXY(topo)).send(src, dst, now)
    cached = SmartNetwork(topo, RouteCache(topo)).send(src, dst, now)
    assert cached == live


@settings(max_examples=25)
@given(st.integers(min_value=4, max_value=36), st.data())
def test_dead_links_bypass_the_cache(n, data):
    """Networks handed the fault-aware router (what System picks once a
    link has failed) send along its (possibly longer) detour path."""
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    link = data.draw(
        st.sampled_from(sorted(topo.all_links())), label="dead_link"
    )
    plan = FaultPlan(num_tiles=n, failed_links=(link,))
    faults = FaultInjector(plan, topo)
    router = FaultAwareRouter(topo, [link])

    mesh = ContentionFreeMesh(topo, faults.router)
    smart = SmartNetwork(topo, faults.router)
    assert smart._route == faults.router.path
    nocstar = NocstarInterconnect(topo, faults=faults)
    assert nocstar.faults is faults  # arbitrates through the faults

    src, dst = _pair(data, n)
    route = router.route(src, dst)
    if route is None:
        # A partitioned pair (System degrades it before sending): both
        # models refuse the send through the router.
        for network in (mesh, smart):
            with pytest.raises(UnreachableError):
                network.send(src, dst, 0)
        return
    traversal = mesh.send(src, dst, 0)
    assert traversal.hops == len(route)
    assert traversal.arrival == len(route) * mesh.cycles_per_hop
    assert link not in traversal.links
    # The detour is never shorter than the Manhattan distance (it can
    # be equal when another minimal path avoids the dead link).
    assert len(route) >= cache.hops[src][dst]


def test_shared_route_cache_is_per_size_singleton():
    a = shared_route_cache(16)
    b = shared_route_cache(16)
    c = shared_route_cache(32)
    assert a is b
    assert a is not c
    assert a.num_tiles == 16 and c.num_tiles == 32
