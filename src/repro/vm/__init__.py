"""Virtual-memory substrate: addresses, page tables, walkers, address spaces."""

from repro.vm.address import (
    PAGE_4K,
    PAGE_2M,
    PAGE_1G,
    translation_vpn,
    va_to_vpn,
    vpn_to_va,
)
from repro.vm.address_space import AddressSpace, Extent, SharedRegion
from repro.vm.page_table import PageTable, PTE
from repro.vm.superpage import SuperpagePolicy
from repro.vm.walker import (
    FixedLatencyWalker,
    PageTableWalker,
    WalkResult,
    WalkerQueue,
)

__all__ = [
    "PAGE_4K",
    "PAGE_2M",
    "PAGE_1G",
    "translation_vpn",
    "va_to_vpn",
    "vpn_to_va",
    "AddressSpace",
    "Extent",
    "SharedRegion",
    "PageTable",
    "PTE",
    "SuperpagePolicy",
    "FixedLatencyWalker",
    "PageTableWalker",
    "WalkResult",
    "WalkerQueue",
]
