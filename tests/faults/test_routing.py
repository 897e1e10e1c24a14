"""Property tests for the fault-aware router.

ISSUE satellite: XY + YX escape routing (with the BFS of last resort)
reaches every alive slice for randomly failed link sets, or correctly
reports a partitioned mesh — ``route() is None`` must agree with an
independent reachability oracle, and every returned path must be a
contiguous, alive walk of real mesh links.
"""

import random

import pytest

from repro.faults.models import FaultSpec, LinkFailure
from repro.faults.routing import FaultAwareRouter, UnreachableError
from repro.noc.topology import MeshTopology


def _oracle_reachable(topology, dead, src, dst):
    """Reference BFS over the alive adjacency, independent of the router."""
    alive = {}
    for a, b in topology.all_links():
        if (a, b) not in dead:
            alive.setdefault(a, []).append(b)
    seen = {src}
    frontier = [src]
    while frontier:
        tile = frontier.pop()
        if tile == dst:
            return True
        for neighbor in alive.get(tile, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return src == dst


def _assert_path_valid(topology, dead, src, dst, path):
    link_set = set(topology.all_links())
    assert path[0][0] == src and path[-1][1] == dst
    at = src
    for link in path:
        assert link in link_set, f"{link} is not a mesh link"
        assert link not in dead, f"{link} is dead"
        assert link[0] == at, "path is not contiguous"
        at = link[1]
    assert at == dst


def test_route_is_complete_for_random_failure_sets():
    """route() returns a valid path exactly when the oracle says one
    exists, across many random failure sets and all tile pairs."""
    topology = MeshTopology(16)
    all_links = sorted(topology.all_links())
    rng = random.Random(1234)
    for trial in range(25):
        k = rng.randrange(0, len(all_links) // 2)
        dead = frozenset(rng.sample(all_links, k))
        router = FaultAwareRouter(topology, dead)
        for src in range(topology.num_tiles):
            for dst in range(topology.num_tiles):
                path = router.route(src, dst)
                reachable = _oracle_reachable(topology, dead, src, dst)
                if src == dst:
                    assert path == ()
                    continue
                if reachable:
                    assert path is not None, (
                        f"trial {trial}: router missed alive route "
                        f"{src}->{dst} under {sorted(dead)}"
                    )
                    _assert_path_valid(topology, dead, src, dst, path)
                else:
                    assert path is None, (
                        f"trial {trial}: router invented route {src}->{dst}"
                    )


def test_single_link_failure_never_partitions_the_mesh():
    """YX is link-disjoint from XY away from the endpoints, and BFS
    covers the rest: no single dead link can partition a 4x4 mesh."""
    topology = MeshTopology(16)
    for dead_link in topology.all_links():
        router = FaultAwareRouter(topology, (dead_link,))
        assert not router.partitioned
        for src in range(16):
            for dst in range(16):
                path = router.route(src, dst)
                assert path is not None
                assert dead_link not in path


def test_partition_is_reported_not_papered_over():
    # Kill both out-links of tile 0 in a 4x4 mesh (0->1 and 0->4):
    # nothing is reachable *from* 0, but 0 can still be reached.
    topology = MeshTopology(16)
    router = FaultAwareRouter(topology, ((0, 1), (0, 4)))
    assert router.route(0, 15) is None
    assert router.route(15, 0) is not None
    # path() is route() for a send: it refuses the partitioned pair.
    assert router.path(15, 0) == router.route(15, 0)
    with pytest.raises(UnreachableError, match="no alive route 0->15"):
        router.path(0, 15)
    assert not router.reachable_round_trip(15, 0)
    assert router.partitioned
    assert set(router.unreachable_pairs()) == {
        (0, dst) for dst in range(1, 16)
    }


def test_route_prefers_xy_then_yx():
    topology = MeshTopology(16)
    clean = FaultAwareRouter(topology, ())
    src, dst = 0, 15
    assert clean.route(src, dst) == tuple(topology.xy_path(src, dst))
    # Break one XY link: the YX escape route must be chosen.
    xy = tuple(topology.xy_path(src, dst))
    router = FaultAwareRouter(topology, (xy[0],))
    assert router.route(src, dst) == tuple(topology.yx_path(src, dst))


def test_router_is_deterministic_for_a_failure_set():
    topology = MeshTopology(16)
    plan = FaultSpec(links=LinkFailure(rate=0.3)).compile(16, base_seed=21)
    a = FaultAwareRouter(topology, plan.failed_links)
    b = FaultAwareRouter(topology, plan.failed_links)
    for src in range(16):
        for dst in range(16):
            assert a.route(src, dst) == b.route(src, dst)
