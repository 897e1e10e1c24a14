"""Mesh network models."""

from repro.noc.mesh import ContentionFreeMesh
from repro.noc.topology import MeshTopology
from tests.noc.live_xy import LiveXY


def _live_mesh(tiles):
    topology = MeshTopology(tiles)
    return ContentionFreeMesh(topology, LiveXY(topology))


def test_contention_free_latency_deterministic():
    mesh = _live_mesh(16)
    t = mesh.send(0, 15, now=100)
    assert t.hops == 6
    assert t.arrival == 100 + 12


def test_contention_free_local_is_free():
    mesh = _live_mesh(16)
    assert mesh.send(3, 3, now=5).arrival == 5


def test_contention_free_counts_traffic():
    mesh = _live_mesh(16)
    mesh.send(0, 1, 0)
    mesh.send(0, 2, 0)
    assert mesh.messages == 2
    assert mesh.total_hops == 3
