"""Address-space extent bookkeeping and classification."""

import pytest
from hypothesis import given, strategies as st

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.vm.address_space import (
    AddressSpace,
    Extent,
    GLOBAL_ASID,
    VpnAllocator,
)


def test_extent_rejects_empty():
    with pytest.raises(ValueError):
        Extent(0, 0)


def test_extent_rejects_misaligned_superpage():
    with pytest.raises(ValueError):
        Extent(1, PAGES_PER_2M, page_size=PAGE_2M)
    with pytest.raises(ValueError):
        Extent(0, PAGES_PER_2M + 1, page_size=PAGE_2M)


def test_extent_contains():
    extent = Extent(100, 10)
    assert extent.contains(100)
    assert extent.contains(109)
    assert not extent.contains(110)
    assert not extent.contains(99)


def test_address_space_rejects_global_asid():
    with pytest.raises(ValueError):
        AddressSpace(GLOBAL_ASID)


def test_add_extent_rejects_overlap():
    space = AddressSpace(1, [Extent(100, 10)])
    with pytest.raises(ValueError):
        space.add_extent(Extent(105, 10))
    with pytest.raises(ValueError):
        space.add_extent(Extent(95, 10))
    space.add_extent(Extent(110, 5))  # adjacent is fine


def test_classify_private_extent_uses_own_asid():
    space = AddressSpace(7, [Extent(0, 16)])
    assert space.classify(3) == (PAGE_4K, 7)


def test_classify_shared_extent_uses_global_asid():
    space = AddressSpace(7, [Extent(0, 16, shared=True)])
    assert space.classify(3) == (PAGE_4K, GLOBAL_ASID)


def test_classify_unmapped_raises():
    space = AddressSpace(1, [Extent(100, 10)])
    with pytest.raises(KeyError):
        space.classify(50)


def test_find_extent_between_extents():
    space = AddressSpace(1, [Extent(0, 10), Extent(100, 10)])
    assert space.find_extent(50) is None
    assert space.find_extent(5).base_vpn == 0
    assert space.find_extent(105).base_vpn == 100


def test_footprint_pages():
    space = AddressSpace(1, [Extent(0, 10), Extent(100, 32)])
    assert space.footprint_pages == 42


def test_replace_extent_swaps_mapping():
    old = Extent(0, 1024)
    space = AddressSpace(1, [old])
    space.replace_extent(old, [Extent(0, 512), Extent(512, 512, PAGE_2M)])
    assert space.classify(100) == (PAGE_4K, 1)
    assert space.classify(600) == (PAGE_2M, 1)


def test_allocator_never_overlaps():
    allocator = VpnAllocator()
    a = allocator.allocate(100)
    b = allocator.allocate(50)
    assert b >= a + 100


def test_allocator_alignment():
    allocator = VpnAllocator()
    allocator.allocate(3)
    aligned = allocator.allocate(512, align_pages=512)
    assert aligned % 512 == 0


def test_allocator_rejects_zero():
    with pytest.raises(ValueError):
        VpnAllocator().allocate(0)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2000),
            st.sampled_from([1, 8, 512]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_allocator_allocations_are_disjoint(requests):
    allocator = VpnAllocator()
    ranges = []
    for pages, align in requests:
        base = allocator.allocate(pages, align_pages=align)
        assert base % align == 0
        ranges.append((base, base + pages))
    ranges.sort()
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end <= start


@given(st.integers(min_value=0, max_value=2047))
def test_classify_is_consistent_with_find_extent(vpn):
    space = AddressSpace(
        3,
        [
            Extent(0, 512, PAGE_2M),
            Extent(512, 512, shared=True),
            Extent(1024, 1024),
        ],
    )
    extent = space.find_extent(vpn)
    size, tag = space.classify(vpn)
    assert extent.page_size == size
    assert tag == (GLOBAL_ASID if extent.shared else 3)
