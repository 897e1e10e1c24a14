"""Footprint extents and the allocator that lays them out.

A workload's footprint is described as a handful of :class:`Extent`
objects — contiguous runs of 4KB virtual pages backed by a single page
size, placed by a :class:`VpnAllocator`.  Extents may be *private* to
one process or *shared* (libraries, OS structures, or all of memory for
a multi-threaded process).  Shared extents are tagged with the global
ASID 0 so that the same TLB entry serves every process mapping them;
this is what lets a shared last-level TLB de-duplicate them while
private TLBs replicate them per core (§II-A of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

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
