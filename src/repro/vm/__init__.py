"""Virtual-memory substrate: addresses, extents, page tables, walkers."""

from repro.vm.address import (
    PAGE_4K,
    PAGE_2M,
    PAGE_1G,
    translation_vpn,
    va_to_vpn,
    vpn_to_va,
)
from repro.vm.address_space import Extent
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
    "Extent",
    "PageTable",
    "PTE",
    "SuperpagePolicy",
    "FixedLatencyWalker",
    "PageTableWalker",
    "WalkResult",
    "WalkerQueue",
]
