"""Slice-indexing strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.indexing import (
    asid_mix_index,
    get_indexer,
    modulo_index,
    xor_fold_index,
)


def test_modulo_is_low_bits():
    assert modulo_index(0, 0x1234, 16) == 4


def test_get_indexer_known_and_unknown():
    assert get_indexer("modulo") is modulo_index
    with pytest.raises(KeyError, match="xor-fold"):
        get_indexer("fancy")


@given(
    st.sampled_from([4, 8, 16, 32, 64]),
    st.integers(min_value=0, max_value=1 << 36),
    st.integers(min_value=0, max_value=64),
)
def test_all_indexers_in_range(slices, page, asid):
    for name in ("modulo", "xor-fold", "asid-mix"):
        index = get_indexer(name)(asid, page, slices)
        assert 0 <= index < slices


def test_xor_fold_breaks_power_of_two_strides():
    """Pages strided by the slice count alias totally under modulo but
    spread under xor-fold."""
    slices = 16
    pages = [base * slices for base in range(256)]
    modulo_homes = {modulo_index(0, p, slices) for p in pages}
    fold_homes = {xor_fold_index(0, p, slices) for p in pages}
    assert len(modulo_homes) == 1
    assert len(fold_homes) == slices


def test_xor_fold_balanced_on_sequential_pages():
    slices = 8
    counts = [0] * slices
    for page in range(4096):
        counts[xor_fold_index(0, page, slices)] += 1
    assert max(counts) - min(counts) <= 64  # near-uniform


def test_asid_mix_decorrelates_processes():
    """Two processes with identical layouts home differently."""
    slices = 16
    pages = list(range(100, 200))
    a = [asid_mix_index(1, p, slices) for p in pages]
    b = [asid_mix_index(2, p, slices) for p in pages]
    assert a != b


def test_asid_mix_deterministic():
    assert asid_mix_index(3, 999, 32) == asid_mix_index(3, 999, 32)


#: Every power-of-two slice count from one slice to 1,024 tiles.
SLICE_COUNTS = [1 << k for k in range(11)]


@pytest.mark.parametrize("name", ["modulo", "xor-fold", "asid-mix"])
def test_indexers_reach_every_slice_and_nothing_else(name):
    """From one slice to 1,024, over pages whose bits span several fold
    groups: every home is in range and every slice is someone's home,
    for each ASID tried.  One slice homes everything at once (the fold
    used to spin on a zero-bit shift)."""
    index = get_indexer(name)
    for slices in SLICE_COUNTS:
        pages = list(range(2 * slices)) + [
            (page << 17) + 12_345 for page in range(1, 64)
        ]
        for asid in (0, 1, 7):
            homes = {index(asid, page, slices) for page in pages}
            assert homes == set(range(slices))


def test_one_slice_homes_every_page_on_it():
    for name in ("modulo", "xor-fold", "asid-mix"):
        index = get_indexer(name)
        assert {index(3, page, 1) for page in (0, 1, 2**40 + 5)} == {0}
