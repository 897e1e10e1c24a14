"""Sequential prefetcher candidate generation."""

import pytest

from repro.tlb.prefetch import SequentialPrefetcher
from repro.vm.address import PAGE_4K


def test_disabled_by_default():
    assert not SequentialPrefetcher().enabled


def test_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        SequentialPrefetcher(distances=(0,))


def test_plus_minus_one():
    pf = SequentialPrefetcher(distances=(1,))
    candidates = pf.candidates(1, PAGE_4K, 100)
    assert (1, PAGE_4K, 99) in candidates
    assert (1, PAGE_4K, 101) in candidates
    assert len(candidates) == 2


def test_distances_compose():
    pf = SequentialPrefetcher(distances=(1, 2, 3))
    candidates = pf.candidates(1, PAGE_4K, 100)
    assert {pn for _, _, pn in candidates} == {97, 98, 99, 101, 102, 103}


def test_negative_pages_clipped():
    pf = SequentialPrefetcher(distances=(1, 2))
    candidates = pf.candidates(1, PAGE_4K, 1)
    assert all(pn >= 0 for _, _, pn in candidates)
    assert (1, PAGE_4K, 0) in candidates


def test_issued_counter():
    pf = SequentialPrefetcher(distances=(1,))
    pf.candidates(1, PAGE_4K, 10)
    pf.candidates(1, PAGE_4K, 20)
    assert pf.issued == 4
