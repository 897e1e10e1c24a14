"""Virtual-memory substrate: addresses, the global ASID and the VPN
allocator, page tables, walkers."""

from repro.vm.address import (
    PAGE_4K,
    PAGE_2M,
    PAGE_1G,
    translation_vpn,
    va_to_vpn,
    vpn_to_va,
)
from repro.vm.page_table import PageTable, PTE
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
    "PageTable",
    "PTE",
    "FixedLatencyWalker",
    "PageTableWalker",
    "WalkResult",
    "WalkerQueue",
]
