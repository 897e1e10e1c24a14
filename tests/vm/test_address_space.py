"""The VPN allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.vm.address_space import VpnAllocator


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
