"""Virtual/physical address helpers and page-size constants.

The simulator works at page granularity: a memory reference is a 4KB
virtual page number (VPN).  When a reference falls inside a 2MB or 1GB
mapping, the TLB-relevant page number is the 4KB VPN shifted right by
the size difference.  These helpers centralise that arithmetic.
"""

from __future__ import annotations

# Page sizes supported by x86-64 (and by this model).
PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_1G = 1024 * 1024 * 1024

PAGE_SHIFT_4K = 12
PAGE_SHIFT_2M = 21
PAGE_SHIFT_1G = 30

#: 4KB pages per 2MB superpage (512) and per 1GB page (262144).
PAGES_PER_2M = 1 << (PAGE_SHIFT_2M - PAGE_SHIFT_4K)
PAGES_PER_1G = 1 << (PAGE_SHIFT_1G - PAGE_SHIFT_4K)

#: Canonical x86-64 virtual addresses are 48 bits wide.
VA_BITS = 48
MAX_VPN = (1 << (VA_BITS - PAGE_SHIFT_4K)) - 1

PAGE_SIZES = (PAGE_4K, PAGE_2M, PAGE_1G)

_SHIFT_FOR_SIZE = {
    PAGE_4K: PAGE_SHIFT_4K,
    PAGE_2M: PAGE_SHIFT_2M,
    PAGE_1G: PAGE_SHIFT_1G,
}

#: Page size -> bits a 4KB VPN drops to become the page number at that
#: size (see :func:`translation_vpn`): 0, 9 and 18.
VPN_SHIFT = {
    size: shift - PAGE_SHIFT_4K for size, shift in _SHIFT_FOR_SIZE.items()
}


def page_shift(page_size: int) -> int:
    """Return log2(page_size) for a supported page size."""
    try:
        return _SHIFT_FOR_SIZE[page_size]
    except KeyError:
        raise ValueError(f"unsupported page size: {page_size}") from None


def vpn_to_va(vpn: int) -> int:
    """Return the base virtual address of a 4KB virtual page number."""
    return vpn << PAGE_SHIFT_4K


def va_to_vpn(va: int) -> int:
    """Return the 4KB virtual page number containing virtual address ``va``."""
    return va >> PAGE_SHIFT_4K


def translation_vpn(vpn: int, page_size: int) -> int:
    """Map a 4KB VPN to the page number at ``page_size`` granularity.

    This is the tag a TLB for ``page_size`` pages stores: e.g. all 512
    4KB VPNs inside one 2MB superpage collapse onto a single 2MB page
    number.
    """
    return vpn >> (page_shift(page_size) - PAGE_SHIFT_4K)


def pages_spanned(page_size: int) -> int:
    """Number of 4KB pages covered by one page of ``page_size``."""
    return page_size // PAGE_4K
