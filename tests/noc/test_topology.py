"""Mesh topology: coordinates, XY routes, link enumeration."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.topology import MeshTopology


def test_square_factoring():
    assert (MeshTopology(16).rows, MeshTopology(16).cols) == (4, 4)
    assert (MeshTopology(32).rows, MeshTopology(32).cols) == (4, 8)
    assert (MeshTopology(64).rows, MeshTopology(64).cols) == (8, 8)


def test_rejects_empty():
    with pytest.raises(ValueError):
        MeshTopology(0)


def test_coords_round_trip():
    topo = MeshTopology(32)
    for tile in range(32):
        x, y = topo.coords(tile)
        assert topo.tile_at(x, y) == tile


def test_coords_bounds_checked():
    topo = MeshTopology(16)
    with pytest.raises(ValueError):
        topo.coords(16)
    with pytest.raises(ValueError):
        topo.tile_at(4, 0)


def test_hops_is_manhattan():
    topo = MeshTopology(16)  # 4x4
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 3) == 3
    assert topo.hops(0, 15) == 6  # corner to corner


def test_xy_path_length_matches_hops():
    topo = MeshTopology(16)
    for src in range(16):
        for dst in range(16):
            assert len(topo.xy_path(src, dst)) == topo.hops(src, dst)


def test_xy_path_goes_x_first():
    topo = MeshTopology(16)
    path = topo.xy_path(0, 5)  # (0,0) -> (1,1)
    first_src, first_dst = path[0]
    assert topo.coords(first_dst)[1] == topo.coords(first_src)[1]  # same row


def test_xy_path_links_are_adjacent():
    topo = MeshTopology(64)
    for src, dst in [(0, 63), (7, 56), (10, 42)]:
        path = topo.xy_path(src, dst)
        assert path[0][0] == src
        assert path[-1][1] == dst
        for (a, b), (c, d) in zip(path, path[1:]):
            assert b == c
            assert topo.hops(a, b) == 1


def test_edge_tile_on_bottom_row():
    topo = MeshTopology(64)
    _, y = topo.coords(topo.edge_tile)
    assert y == topo.rows - 1


def test_diameter():
    assert MeshTopology(64).diameter == 14
    assert MeshTopology(16).diameter == 6


def test_all_links_count():
    """A RxC mesh has 2*(R*(C-1) + C*(R-1)) directed links."""
    topo = MeshTopology(16)
    assert len(topo.all_links()) == 2 * (4 * 3 + 4 * 3)


@given(st.integers(min_value=1, max_value=128))
def test_factoring_covers_all_tiles(n):
    topo = MeshTopology(n)
    assert topo.rows * topo.cols == n
    assert topo.rows <= topo.cols


@given(
    st.integers(min_value=2, max_value=64),
    st.data(),
)
def test_hops_symmetric(n, data):
    topo = MeshTopology(n)
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.hops(src, dst) == topo.hops(dst, src)
    assert topo.hops(src, dst) <= topo.diameter
