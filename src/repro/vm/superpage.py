"""Transparent-superpage (THP) layout.

The paper's experiments run Linux 4.14 with transparent 2MB superpages
and report that 50-80% of each workload's footprint ends up backed by
superpages (§V).  :meth:`SuperpagePolicy.layout` splits a requested
footprint into a 2MB-backed extent and a 4KB-backed remainder at a
given superpage fraction, mirroring what THP achieves at steady state.
(The TLB-storm microbenchmark's 512-entry invalidation bursts come
from its ``StormConfig``; see :mod:`repro.workloads.microbench`.)
"""

from __future__ import annotations

from typing import List

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.vm.address_space import Extent, VpnAllocator


class SuperpagePolicy:
    """Builds superpage-backed layouts."""

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
