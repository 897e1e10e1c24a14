"""Private per-core L2 TLB."""

from repro.mem import sram
from repro.tlb.l2_private import L2TlbConfig, PrivateL2Tlb
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K, translation_vpn


def test_default_is_haswell_1024e_9cc():
    l2 = PrivateL2Tlb()
    assert l2.config.entries == 1024
    assert l2.lookup_cycles == 9


def test_lookup_cycles_follow_sram_model():
    config = L2TlbConfig(entries=4096)
    assert config.lookup_cycles == sram.lookup_cycles(4096)


def test_holds_4k_and_2m_concurrently():
    l2 = PrivateL2Tlb()
    l2.insert_page_number(1, PAGE_4K, 100)
    l2.insert_page_number(1, PAGE_2M, 7)
    assert l2.lookup_page_number(1, PAGE_4K, 100)
    assert l2.lookup_page_number(1, PAGE_2M, 7)


def test_1g_pages_bypass_l2():
    l2 = PrivateL2Tlb()
    l2.insert_page_number(1, PAGE_1G, 0)
    # Never cached, counted as a miss.
    assert not l2.lookup_page_number(1, PAGE_1G, 0)
    assert l2.misses == 1


def test_page_number_api_matches_vpn_api():
    """The key is the size-granular page number of the VPN."""
    l2 = PrivateL2Tlb()
    l2.insert_page_number(1, PAGE_2M, translation_vpn(512 * 5 + 9, PAGE_2M))
    assert l2.lookup_page_number(1, PAGE_2M, 5)


def test_invalidate():
    l2 = PrivateL2Tlb()
    l2.insert_page_number(1, PAGE_4K, 100)
    assert l2.invalidate(1, PAGE_4K, 100)
    assert not l2.lookup_page_number(1, PAGE_4K, 100)


def test_flush_and_stats():
    l2 = PrivateL2Tlb()
    l2.insert_page_number(1, PAGE_4K, 1)
    l2.lookup_page_number(1, PAGE_4K, 1)
    l2.lookup_page_number(1, PAGE_4K, 2)
    assert l2.hits == 1 and l2.misses == 1 and l2.accesses == 2
    assert l2.flush() == 1
