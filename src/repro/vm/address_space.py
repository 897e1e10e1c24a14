"""Process address spaces built from contiguous extents.

A workload's footprint is described as a handful of :class:`Extent`
objects — contiguous runs of 4KB virtual pages backed by a single page
size.  Extents may be *private* to one address space or *shared*
(libraries, OS structures, or all of memory for a multi-threaded
process).  Shared extents are tagged with the global ASID 0 so that the
same TLB entry serves every process mapping them; this is what lets a
shared last-level TLB de-duplicate them while private TLBs replicate
them per core (§II-A of the paper).

Lookups are a bisect over extent bases, so classification of a VPN is
O(log #extents) with #extents typically < 10.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.vm.address import PAGE_4K, pages_spanned

#: ASID tag used for globally shared mappings (kernel, shared libraries).
GLOBAL_ASID = 0


@dataclass(frozen=True)
class Extent:
    """A contiguous run of 4KB virtual pages backed by one page size.

    ``base_vpn`` and ``num_pages`` are in 4KB-page units; ``page_size``
    is the backing translation granularity (4K/2M/1G).  ``shared``
    extents translate identically in every address space.
    """

    base_vpn: int
    num_pages: int
    page_size: int = PAGE_4K
    shared: bool = False

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise ValueError("extent must cover at least one page")
        span = pages_spanned(self.page_size)
        if self.base_vpn % span or self.num_pages % span:
            raise ValueError(
                f"extent [{self.base_vpn}, +{self.num_pages}) is not aligned "
                f"to its {self.page_size}-byte page size"
            )

    @property
    def end_vpn(self) -> int:
        """One past the last 4KB VPN in the extent."""
        return self.base_vpn + self.num_pages

    def contains(self, vpn: int) -> bool:
        return self.base_vpn <= vpn < self.end_vpn


@dataclass(frozen=True)
class SharedRegion:
    """A shared extent plus the set of address spaces that map it."""

    extent: Extent
    mappers: Tuple[int, ...]


class AddressSpace:
    """Virtual address space of one process (one ASID).

    Provides ``classify(vpn) -> (page_size, tag_asid)``: the backing
    page size of the 4KB page and the ASID under which its translation
    is tagged in TLBs (``GLOBAL_ASID`` for shared extents).
    """

    def __init__(self, asid: int, extents: Iterable[Extent] = ()) -> None:
        if asid == GLOBAL_ASID:
            raise ValueError("ASID 0 is reserved for shared mappings")
        self.asid = asid
        self._extents: List[Extent] = []
        self._bases: List[int] = []
        for extent in extents:
            self.add_extent(extent)

    @property
    def extents(self) -> Tuple[Extent, ...]:
        return tuple(self._extents)

    def add_extent(self, extent: Extent) -> None:
        """Insert an extent, rejecting overlap with existing ones."""
        idx = bisect.bisect_right(self._bases, extent.base_vpn)
        if idx > 0 and self._extents[idx - 1].end_vpn > extent.base_vpn:
            raise ValueError("extent overlaps an existing mapping")
        if idx < len(self._extents) and extent.end_vpn > self._bases[idx]:
            raise ValueError("extent overlaps an existing mapping")
        self._extents.insert(idx, extent)
        self._bases.insert(idx, extent.base_vpn)

    def replace_extent(self, old: Extent, new: Iterable[Extent]) -> None:
        """Atomically swap ``old`` for replacement extents (promotion)."""
        idx = self._extents.index(old)
        del self._extents[idx]
        del self._bases[idx]
        for extent in new:
            self.add_extent(extent)

    def find_extent(self, vpn: int) -> Optional[Extent]:
        """Return the extent containing ``vpn``, or None if unmapped."""
        idx = bisect.bisect_right(self._bases, vpn) - 1
        if idx < 0:
            return None
        extent = self._extents[idx]
        return extent if extent.contains(vpn) else None

    def classify(self, vpn: int) -> Tuple[int, int]:
        """Return ``(page_size, tag_asid)`` for a mapped 4KB VPN."""
        extent = self.find_extent(vpn)
        if extent is None:
            raise KeyError(f"VPN {vpn:#x} is not mapped in ASID {self.asid}")
        return extent.page_size, (GLOBAL_ASID if extent.shared else self.asid)

    @property
    def footprint_pages(self) -> int:
        """Total mapped 4KB pages."""
        return sum(extent.num_pages for extent in self._extents)


@dataclass
class VpnAllocator:
    """Bump allocator handing out non-overlapping, aligned VPN ranges.

    Used by workload builders to lay out footprints without collisions.
    Alignment is in 4KB pages (512 aligns a 2MB superpage region).
    """

    next_vpn: int = 1 << 20  # start well above the null page
    allocations: List[Tuple[int, int]] = field(default_factory=list)

    def allocate(self, num_pages: int, align_pages: int = 1) -> int:
        if num_pages <= 0:
            raise ValueError("must allocate at least one page")
        base = -(-self.next_vpn // align_pages) * align_pages
        self.next_vpn = base + num_pages
        self.allocations.append((base, num_pages))
        return base
