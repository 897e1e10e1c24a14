"""The global ASID and the allocator that lays footprints out.

Shared pages (libraries, OS structures, or all of memory for a
multi-threaded process) are tagged with the global ASID 0 so that the
same TLB entry serves every process mapping them; this is what lets a
shared last-level TLB de-duplicate them while private TLBs replicate
them per core (§II-A of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ASID tag used for globally shared mappings (kernel, shared libraries).
GLOBAL_ASID = 0


@dataclass
class VpnAllocator:
    """Bump allocator handing out non-overlapping, aligned VPN ranges.

    Used by workload builders to lay out footprints without collisions.
    Alignment is in 4KB pages (512 aligns a 2MB superpage region).
    """

    next_vpn: int = 1 << 20  # start well above the null page

    def allocate(self, num_pages: int, align_pages: int = 1) -> int:
        if num_pages <= 0:
            raise ValueError("must allocate at least one page")
        base = -(-self.next_vpn // align_pages) * align_pages
        self.next_vpn = base + num_pages
        return base
