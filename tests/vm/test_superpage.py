"""Superpage layout."""

import pytest

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.vm.address_space import VpnAllocator
from repro.vm.superpage import SuperpagePolicy


def test_policy_rejects_bad_fraction():
    with pytest.raises(ValueError):
        SuperpagePolicy(1.5)
    with pytest.raises(ValueError):
        SuperpagePolicy(-0.1)


def test_layout_splits_by_fraction():
    policy = SuperpagePolicy(0.5)
    extents = policy.layout(VpnAllocator(), 4096)
    by_size = {e.page_size: e for e in extents}
    assert by_size[PAGE_2M].num_pages == 2048
    assert by_size[PAGE_4K].num_pages == 2048


def test_layout_rounds_down_to_whole_superpages():
    policy = SuperpagePolicy(0.5)
    extents = policy.layout(VpnAllocator(), 1500)
    by_size = {e.page_size: e for e in extents}
    # 750 rounds down to 512 (one whole 2MB region).
    assert by_size[PAGE_2M].num_pages == 512
    assert by_size[PAGE_4K].num_pages == 1500 - 512


def test_layout_zero_fraction_is_all_4k():
    extents = SuperpagePolicy(0.0).layout(VpnAllocator(), 1000)
    assert len(extents) == 1
    assert extents[0].page_size == PAGE_4K


def test_layout_small_footprint_cannot_use_superpages():
    extents = SuperpagePolicy(0.9).layout(VpnAllocator(), 100)
    assert [e.page_size for e in extents] == [PAGE_4K]


def test_layout_preserves_total_pages():
    for fraction in (0.0, 0.3, 0.65, 1.0):
        extents = SuperpagePolicy(fraction).layout(VpnAllocator(), 10_000)
        assert sum(e.num_pages for e in extents) == 10_000


def test_layout_superpage_extent_is_aligned():
    extents = SuperpagePolicy(0.8).layout(VpnAllocator(), 4096)
    super_extent = next(e for e in extents if e.page_size == PAGE_2M)
    assert super_extent.base_vpn % PAGES_PER_2M == 0
