"""Workload trace persistence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exec.cache import workload_fingerprint
from repro.exec.trace_store import (
    attach_workload,
    load_workload_packed,
    save_workload_packed,
)
from repro.sim import configs as cfg
from repro.sim.engine import simulate
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K, PAGE_SIZES
from repro.workloads.generators import build_multithreaded
from repro.workloads.io import (
    check_records,
    load_workload,
    pack_workload,
    page_size_column,
    save_workload,
    unpack_traces,
    workload_from_records,
)
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from repro.workloads.trace import Workload


@pytest.fixture()
def workload():
    return build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=400, seed=5, smt=2
    )


def test_round_trip_preserves_everything(tmp_path, workload):
    path = tmp_path / "trace.npz"
    save_workload(workload, path)
    loaded = load_workload(path)
    assert loaded.name == workload.name
    assert loaded.seed == workload.seed
    assert loaded.superpages == workload.superpages
    assert loaded.traces == workload.traces
    assert loaded.info == workload.info


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_registry_workload_round_trips(tmp_path, name):
    # Every generator emits gaps of 1 + Poisson and valid page sizes, so
    # the record check load_workload applies accepts every export.
    workload = build_multithreaded(
        get_workload(name), 2, accesses_per_core=100, seed=3, smt=2
    )
    path = save_workload(workload, tmp_path / "trace.npz")
    assert load_workload(path).traces == workload.traces


def test_loaded_trace_simulates_identically(tmp_path, workload):
    path = tmp_path / "trace.npz"
    save_workload(workload, path)
    loaded = load_workload(path)
    a = simulate(cfg.nocstar(4), workload)
    b = simulate(cfg.nocstar(4), loaded)
    assert a.cycles == b.cycles
    assert a.stats.l2_misses == b.stats.l2_misses


def test_version_check(tmp_path, workload):
    import json
    import numpy as np

    path = tmp_path / "trace.npz"
    save_workload(workload, path)
    data = dict(np.load(path))
    meta = json.loads(bytes(data["meta"]).decode())
    meta["version"] = 99
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_workload(path)


# ----------------------------------------------------------------------
# packed (memmap-friendly) layout


def _assert_identical(loaded, original):
    assert loaded.name == original.name
    assert loaded.seed == original.seed
    assert loaded.superpages == original.superpages
    assert loaded.traces == original.traces
    assert loaded.info == original.info


def _assert_exact_record_types(loaded):
    """Records must be tuples of Python int — never np.int64 (which
    would leak into cycles, telemetry JSON, and cache keys)."""
    for core in loaded.traces:
        for stream in core:
            for record in stream:
                assert type(record) is tuple and len(record) == 4
                for value in record:
                    assert type(value) is int


@pytest.mark.parametrize("mmap", [True, False])
def test_packed_round_trip_multi_stream(tmp_path, workload, mmap):
    assert workload.smt == 2  # multi-stream by construction
    path = save_workload_packed(workload, tmp_path / "trace.npy")
    loaded = load_workload_packed(path, mmap=mmap)
    _assert_identical(loaded, workload)
    _assert_exact_record_types(loaded)


@pytest.mark.parametrize("mmap", [True, False])
def test_packed_round_trip_single_record(tmp_path, mmap):
    original = Workload(
        name="one",
        traces=[[[(3, 7, PAGE_2M, 42)]]],
        seed=11,
        superpages=True,
        info={"asids": 8},
    )
    path = save_workload_packed(original, tmp_path / "one.npy")
    loaded = load_workload_packed(path, mmap=mmap)
    _assert_identical(loaded, original)
    _assert_exact_record_types(loaded)
    assert loaded.traces[0][0][0] == (3, 7, PAGE_2M, 42)


@pytest.mark.parametrize("mmap", [True, False])
def test_packed_round_trip_empty(tmp_path, mmap):
    # Zero cores, and cores whose streams are empty, both round-trip.
    for name, traces in (("none", []), ("hollow", [[], [[]]])):
        original = Workload(
            name=name, traces=traces, seed=0, superpages=False
        )
        path = save_workload_packed(original, tmp_path / f"{name}.npy")
        loaded = load_workload_packed(path, mmap=mmap)
        _assert_identical(loaded, original)


def test_pack_unpack_is_the_identity(workload):
    data, offsets, streams_per_core, meta = pack_workload(workload)
    assert data.dtype.name == "int64" and data.shape[1] == 4
    assert data.shape[0] == workload.total_accesses
    assert unpack_traces(data, offsets, streams_per_core) == workload.traces
    assert meta["superpages"] == workload.superpages


def test_packed_loaded_trace_simulates_identically(tmp_path, workload):
    path = save_workload_packed(workload, tmp_path / "trace.npy")
    loaded = load_workload_packed(path)
    a = simulate(cfg.nocstar(4), workload)
    b = simulate(cfg.nocstar(4), loaded)
    assert a.cycles == b.cycles
    assert a.stats == b.stats


def test_packed_version_check(tmp_path, workload):
    import json

    path = save_workload_packed(workload, tmp_path / "trace.npy")
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta["version"] = 99
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="version"):
        load_workload_packed(path)


def test_packed_shape_check(tmp_path, workload):
    import numpy as np

    path = save_workload_packed(workload, tmp_path / "trace.npy")
    np.save(path, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        load_workload_packed(path)


def test_from_records_builds_runnable_workload():
    records = [
        [(2, 1, PAGE_4K, 100 + i) for i in range(50)],
        [(3, 1, PAGE_2M, i % 5) for i in range(50)],
    ]
    wl = workload_from_records("custom", records)
    assert wl.num_cores == 2
    result = simulate(cfg.private(2), wl)
    assert result.stats.l1_accesses == 100


def test_from_records_validation():
    with pytest.raises(ValueError, match="empty"):
        workload_from_records("x", [[]])
    with pytest.raises(ValueError, match="gap"):
        workload_from_records("x", [[(0, 1, PAGE_4K, 1)]])
    with pytest.raises(ValueError, match="page size"):
        workload_from_records("x", [[(1, 1, 8192, 1)]])
    with pytest.raises(ValueError, match="negative"):
        workload_from_records("x", [[(1, -1, PAGE_4K, 1)]])
    with pytest.raises(ValueError, match="need"):
        workload_from_records("x", [[(1, 1, PAGE_4K)]])


# ----------------------------------------------------------------------
# shared page-size ints


def _page_sizes(workload):
    return [
        record[2]
        for core in workload.traces
        for stream in core
        for record in stream
    ]


def _assert_shares_page_size_ints(workload):
    """Every record names its page size by the constant itself, and
    the workload uses both 4KB and 2MB pages."""
    sizes = _page_sizes(workload)
    assert all(size is PAGE_4K or size is PAGE_2M for size in sizes)
    assert PAGE_4K in sizes and PAGE_2M in sizes


def test_every_path_shares_the_page_size_ints(tmp_path, workload):
    """Built, loaded, attached and user-supplied records all hold the
    ``PAGE_*`` int objects, not an int of their own per record."""
    _assert_shares_page_size_ints(workload)
    _assert_shares_page_size_ints(
        load_workload(save_workload(workload, tmp_path / "trace.npz"))
    )
    packed = save_workload_packed(workload, tmp_path / "trace.npy")
    _assert_shares_page_size_ints(attach_workload(str(packed)))
    # Sizes built at run time: equal to the constants, not the objects.
    fresh = [
        [(2, 1, int(str(size)), 100 + i) for i, size in enumerate(sizes)]
        for sizes in ((PAGE_4K, PAGE_2M), (PAGE_2M, PAGE_4K, PAGE_4K))
    ]
    assert fresh[0][0][2] is not PAGE_4K
    _assert_shares_page_size_ints(workload_from_records("custom", fresh))


def test_workload_fingerprint_is_unchanged(workload):
    """Sharing the size ints changes no packed byte."""
    assert workload_fingerprint(workload) == (
        "ed54d5075eda255f65ee3a1f0851096e249591869e69a73b69e34e3f4f925300"
    )


def test_sizes_outside_page_sizes_unpack_as_themselves():
    """An unchecked size is never rounded onto a neighbouring page
    size (a bare ``searchsorted`` would turn 8192 into ``PAGE_2M``):
    ``check_records`` rejects it, and the engine meets it as a record
    built by hand."""
    sizes = (PAGE_4K, 8192, PAGE_2M, PAGE_1G, 2 * PAGE_1G, 0, -PAGE_4K)
    data = np.array([[1, 1, size, 7] for size in sizes], dtype=np.int64)
    (records,), = unpack_traces(data, [0, len(sizes)], [1])
    for record, size in zip(records, sizes):
        assert type(record[2]) is int and record[2] == size
        assert any(record[2] is known for known in PAGE_SIZES) == (
            size in PAGE_SIZES
        )
    with pytest.raises(ValueError, match="core 0 record 1: bad page size 8192"):
        check_records(data, [0, len(sizes)], ["core 0"])
    unpacked = Workload("odd", [[records[1:2]]], seed=0, superpages=False)
    by_hand = Workload("odd", [[[(1, 1, 8192, 7)]]], seed=0, superpages=False)
    for odd in (unpacked, by_hand):
        with pytest.raises(KeyError, match="8192"):
            simulate(cfg.private(1), odd)


@given(
    st.lists(
        st.one_of(
            st.sampled_from(PAGE_SIZES),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        )
    )
)
def test_page_size_column_is_tolist_with_shared_page_sizes(values):
    column = page_size_column(np.array(values, dtype=np.int64))
    assert column == values
    for got in column:
        assert type(got) is int
        assert (got in PAGE_SIZES) == any(got is size for size in PAGE_SIZES)
