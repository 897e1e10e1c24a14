"""Property tests across the NoC models."""

from hypothesis import given, settings, strategies as st

from repro.noc.bus import BusNetwork
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology


@settings(max_examples=30)
@given(
    st.integers(min_value=2, max_value=64),
    st.data(),
)
def test_fbfly_route_is_valid(n, data):
    topo = MeshTopology(n)
    fb = FlattenedButterfly(topo)
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    route = fb.route(src, dst)
    assert len(route) <= 2
    if route:
        assert route[0][0] == src
        assert route[-1][1] == dst
        # Each express link stays within one row or one column.
        for a, b in route:
            ax, ay = topo.coords(a)
            bx, by = topo.coords(b)
            assert ax == bx or ay == by
    else:
        assert src == dst


@settings(max_examples=20)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=40,
    )
)
def test_bus_never_overlaps_transfers(messages):
    """At most one transfer occupies the bus in any cycle."""
    bus = BusNetwork(MeshTopology(16))
    windows = []
    for src, dst, now in messages:
        t = bus.send(src, dst, now)
        if t.hops:
            windows.append((t.arrival - bus.transfer_cycles, t.arrival))
    windows.sort()
    for (a_start, a_end), (b_start, b_end) in zip(windows, windows[1:]):
        assert a_end <= b_start


@settings(max_examples=20)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=40,
    )
)
def test_every_network_arrival_at_or_after_send(messages):
    topo = MeshTopology(16)
    networks = [
        ContentionFreeMesh(topo),
        SmartNetwork(topo),
        BusNetwork(topo),
        FlattenedButterfly(topo),
        FlattenedButterfly(topo, narrow=True),
    ]
    for src, dst, now in messages:
        for network in networks:
            t = network.send(src, dst, now)
            assert t.arrival >= now
            if src == dst:
                assert t.arrival == now


@settings(max_examples=15)
@given(st.integers(min_value=2, max_value=64), st.data())
def test_contention_free_mesh_latency_formula(n, data):
    topo = MeshTopology(n)
    mesh = ContentionFreeMesh(topo)
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = mesh.send(src, dst, now=100)
    assert t.arrival == 100 + 2 * topo.hops(src, dst)
