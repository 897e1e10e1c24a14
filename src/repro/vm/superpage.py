"""Transparent-superpage (THP) policy.

The paper's experiments run Linux 4.14 with transparent 2MB superpages
and report that 50-80% of each workload's footprint ends up backed by
superpages (§V).  This module provides:

* :func:`SuperpagePolicy.layout` — split a requested footprint into a
  2MB-backed extent and a 4KB-backed remainder at a given superpage
  fraction, mirroring what THP achieves at steady state; and
* promotion of individual 2MB regions, which is the engine of the
  TLB-storm microbenchmark (§V, pathological workloads): promoting 512
  4KB pages to one superpage invalidates 512 distinct TLB entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.vm.address_space import AddressSpace, Extent, VpnAllocator


@dataclass(frozen=True)
class InvalidationBatch:
    """TLB entries that must be shot down after a promotion.

    Each element is a ``(page_size, page_number)`` pair (tagged with the
    address space's ASID by the caller).
    """

    entries: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


class SuperpagePolicy:
    """Builds and mutates superpage-backed layouts."""

    def __init__(self, superpage_fraction: float = 0.65) -> None:
        if not 0.0 <= superpage_fraction <= 1.0:
            raise ValueError("superpage fraction must be in [0, 1]")
        self.superpage_fraction = superpage_fraction

    def layout(
        self,
        allocator: VpnAllocator,
        num_pages: int,
        shared: bool = False,
    ) -> List[Extent]:
        """Split ``num_pages`` 4KB pages into superpage + 4KB extents.

        The superpage share is rounded down to whole 2MB regions; a
        fraction of 0 (or a footprint smaller than one superpage)
        yields a single 4KB extent.
        """
        if num_pages <= 0:
            raise ValueError("footprint must be positive")
        super_pages = int(num_pages * self.superpage_fraction)
        super_pages -= super_pages % PAGES_PER_2M
        extents: List[Extent] = []
        if super_pages:
            base = allocator.allocate(super_pages, align_pages=PAGES_PER_2M)
            extents.append(
                Extent(base, super_pages, page_size=PAGE_2M, shared=shared)
            )
        small_pages = num_pages - super_pages
        if small_pages:
            base = allocator.allocate(small_pages)
            extents.append(
                Extent(base, small_pages, page_size=PAGE_4K, shared=shared)
            )
        return extents

    @staticmethod
    def promote(space: AddressSpace, base_vpn: int) -> InvalidationBatch:
        """Promote the 512 4KB pages at ``base_vpn`` into one 2MB page.

        Returns the TLB entries invalidated: the 512 distinct 4KB
        translations (the paper's microbenchmark relies on exactly this
        burst).
        """
        extent = _aligned_region(space, base_vpn, PAGE_4K)
        before = Extent(extent.base_vpn, extent.num_pages, PAGE_4K, extent.shared)
        pieces = _split_out(before, base_vpn)
        promoted = Extent(base_vpn, PAGES_PER_2M, PAGE_2M, extent.shared)
        space.replace_extent(extent, pieces + [promoted])
        invalidated = tuple(
            (PAGE_4K, vpn) for vpn in range(base_vpn, base_vpn + PAGES_PER_2M)
        )
        return InvalidationBatch(invalidated)


def _aligned_region(space: AddressSpace, base_vpn: int, page_size: int) -> Extent:
    """Fetch the extent holding a 2MB-aligned region, validating inputs."""
    if base_vpn % PAGES_PER_2M:
        raise ValueError("region base must be 2MB aligned")
    extent = space.find_extent(base_vpn)
    if extent is None or extent.page_size != page_size:
        raise ValueError(
            f"VPN {base_vpn:#x} is not backed by {page_size}-byte pages"
        )
    if extent.end_vpn < base_vpn + PAGES_PER_2M:
        raise ValueError("region extends past its extent")
    return extent


def _split_out(extent: Extent, base_vpn: int) -> List[Extent]:
    """Return the pieces of ``extent`` around [base_vpn, base_vpn+512)."""
    pieces = []
    if base_vpn > extent.base_vpn:
        pieces.append(
            Extent(
                extent.base_vpn,
                base_vpn - extent.base_vpn,
                extent.page_size,
                extent.shared,
            )
        )
    tail = extent.end_vpn - (base_vpn + PAGES_PER_2M)
    if tail:
        pieces.append(
            Extent(base_vpn + PAGES_PER_2M, tail, extent.page_size, extent.shared)
        )
    return pieces
