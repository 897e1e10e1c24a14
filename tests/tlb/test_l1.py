"""Per-page-size L1 TLB group."""

from repro.tlb.l1 import L1Tlb, L1TlbConfig
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K, translation_vpn


def lookup(l1, asid, vpn, page_size):
    """Probe the matching array with the size-granular page number."""
    page_number = translation_vpn(vpn, page_size)
    return l1.array(page_size).lookup(asid, page_size, page_number)


def insert(l1, asid, vpn, page_size):
    page_number = translation_vpn(vpn, page_size)
    l1.array(page_size).insert(asid, page_size, page_number)


def test_default_geometry_matches_haswell():
    l1 = L1Tlb()
    assert l1.array(PAGE_4K).entries == 64
    assert l1.array(PAGE_2M).entries == 32
    assert l1.array(PAGE_1G).entries == 4


def test_lookup_uses_size_granular_number():
    l1 = L1Tlb()
    insert(l1, 1, vpn=512 * 3 + 7, page_size=PAGE_2M)
    # Any 4KB VPN in the same 2MB page hits.
    assert lookup(l1, 1, 512 * 3 + 400, PAGE_2M)


def test_sizes_do_not_alias():
    l1 = L1Tlb()
    insert(l1, 1, vpn=100, page_size=PAGE_4K)
    assert not lookup(l1, 1, 100 * 512, PAGE_2M)


def test_invalidate_targets_one_array():
    """A grouped invalidation drops the 4KB entry only."""
    l1 = L1Tlb()
    insert(l1, 1, 100, PAGE_4K)
    insert(l1, 1, 512 * 9, PAGE_2M)
    assert l1.invalidate_grouped(l1.group([(1, PAGE_4K, 100)])) == 1
    assert not lookup(l1, 1, 100, PAGE_4K)
    assert lookup(l1, 1, 512 * 9, PAGE_2M)


def test_flush_empties_all_arrays():
    l1 = L1Tlb()
    insert(l1, 1, 1, PAGE_4K)
    insert(l1, 1, 512, PAGE_2M)
    assert l1.flush() == 2
    assert not lookup(l1, 1, 1, PAGE_4K)


def test_stats_aggregate_across_arrays():
    l1 = L1Tlb()
    lookup(l1, 1, 1, PAGE_4K)
    lookup(l1, 1, 512, PAGE_2M)
    assert l1.misses == 2
    assert l1.accesses == 2


def test_scaled_half_shrinks_capacity():
    config = L1TlbConfig().scaled(0.5)
    assert config.entries_4k == 32
    assert config.entries_2m == 16
    assert config.entries_4k % config.ways_4k == 0


def test_scaled_150_percent_grows_capacity():
    config = L1TlbConfig().scaled(1.5)
    assert config.entries_4k == 96
    assert config.entries_4k % config.ways_4k == 0


def test_scaled_never_below_one_way():
    config = L1TlbConfig().scaled(0.01)
    assert config.entries_4k >= config.ways_4k
    assert config.entries_1g >= 1


def test_capacity_pressure_evicts():
    l1 = L1Tlb()
    for vpn in range(1000):
        insert(l1, 1, vpn, PAGE_4K)
    assert l1.array(PAGE_4K).occupancy <= 64
