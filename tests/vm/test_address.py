"""Address arithmetic invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.vm import address as addr


def test_page_constants_are_consistent():
    assert addr.PAGE_4K == 1 << addr.PAGE_SHIFT_4K
    assert addr.PAGE_2M == 1 << addr.PAGE_SHIFT_2M
    assert addr.PAGE_1G == 1 << addr.PAGE_SHIFT_1G


def test_pages_per_superpage():
    assert addr.PAGES_PER_2M == 512
    assert addr.PAGES_PER_1G == 512 * 512


@pytest.mark.parametrize(
    "size,shift",
    [(addr.PAGE_4K, 12), (addr.PAGE_2M, 21), (addr.PAGE_1G, 30)],
)
def test_page_shift(size, shift):
    assert addr.page_shift(size) == shift


def test_page_shift_rejects_unknown_size():
    with pytest.raises(ValueError):
        addr.page_shift(8192)


def test_vpn_va_round_trip():
    vpn = 0x123456
    assert addr.va_to_vpn(addr.vpn_to_va(vpn)) == vpn


def test_va_to_vpn_truncates_offset():
    assert addr.va_to_vpn(addr.vpn_to_va(7) + 4095) == 7


def test_translation_vpn_4k_is_identity():
    assert addr.translation_vpn(12345, addr.PAGE_4K) == 12345


def test_translation_vpn_2m_collapses_512_pages():
    base = 512 * 9
    numbers = {addr.translation_vpn(base + i, addr.PAGE_2M) for i in range(512)}
    assert numbers == {9}


def test_translation_vpn_1g():
    assert addr.translation_vpn(512 * 512 * 3 + 99, addr.PAGE_1G) == 3


def test_pages_spanned():
    assert addr.pages_spanned(addr.PAGE_4K) == 1
    assert addr.pages_spanned(addr.PAGE_2M) == 512


@given(st.integers(min_value=0, max_value=addr.MAX_VPN))
def test_translation_vpn_monotone_in_vpn(vpn):
    """Collapsing to superpage numbers preserves ordering."""
    t = addr.translation_vpn
    assert t(vpn, addr.PAGE_2M) <= t(vpn + 1, addr.PAGE_2M)
    assert t(vpn, addr.PAGE_2M) == vpn >> 9


@given(st.integers(min_value=0, max_value=addr.MAX_VPN))
def test_superpage_contains_its_4k_pages(vpn):
    """A 4KB VPN maps into the 2MB page that covers its address."""
    two_meg = addr.translation_vpn(vpn, addr.PAGE_2M)
    assert two_meg * 512 <= vpn < (two_meg + 1) * 512
