"""Data-cache model used for walk latency."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mem.cache import Cache, CacheHierarchy, CacheLatencies, LINE_BYTES


def test_cache_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Cache("bad", 100, 8)  # not line-divisible


def test_miss_then_fill_then_hit():
    cache = Cache("c", 4096, 4)
    assert not cache.lookup(0x1000, now=0)
    cache.fill(0x1000, now=0)
    assert cache.lookup(0x1000, now=1)
    assert cache.hits == 1 and cache.misses == 1


def test_same_line_shares_entry():
    cache = Cache("c", 4096, 4)
    cache.fill(0x1000, now=0)
    assert cache.lookup(0x1000 + LINE_BYTES - 1, now=1)


def test_lru_eviction_within_set():
    cache = Cache("c", 2 * LINE_BYTES, 2)  # 1 set, 2 ways
    cache.fill(0 * LINE_BYTES, 0)
    cache.fill(1 * LINE_BYTES, 0)
    cache.lookup(0, 1)  # touch line 0 so line 1 is LRU
    cache.fill(2 * LINE_BYTES, 2)
    assert cache.lookup(0, 3)
    assert not cache.lookup(1 * LINE_BYTES, 3)


def test_decay_counts_as_miss():
    cache = Cache("c", 4096, 4, decay_cycles=100)
    cache.fill(0x1000, now=0)
    assert cache.lookup(0x1000, now=50)
    assert not cache.lookup(0x1000, now=500)


def test_hit_refreshes_decay_clock():
    cache = Cache("c", 4096, 4, decay_cycles=100)
    cache.fill(0x1000, now=0)
    cache.lookup(0x1000, now=90)
    assert cache.lookup(0x1000, now=180)  # refreshed at 90


def test_invalidate_all():
    cache = Cache("c", 4096, 4)
    cache.fill(0x1000, 0)
    cache.invalidate_all()
    assert not cache.lookup(0x1000, 1)


def test_hierarchy_first_access_is_dram():
    hierarchy = CacheHierarchy(2)
    level, latency = hierarchy.access(0, 0x5000, now=0)
    assert level == "dram"
    assert latency == CacheLatencies().dram


def test_hierarchy_second_access_hits_l1():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, 0x5000, now=0)
    level, latency = hierarchy.access(0, 0x5000, now=1)
    assert level == "l1"
    assert latency == CacheLatencies().l1


def test_hierarchy_llc_is_shared_between_cores():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, 0x5000, now=0)  # core 0 brings it into LLC
    level, _ = hierarchy.access(1, 0x5000, now=1)
    assert level == "llc"  # core 1's L1/L2 are cold, LLC shared


def test_hierarchy_private_levels_not_shared():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, 0x5000, now=0)
    hierarchy.access(0, 0x5000, now=1)  # now in core 0's L1
    level, _ = hierarchy.access(1, 0x5000, now=2)
    assert level == "llc"


def test_hierarchy_decay_sends_back_to_dram():
    hierarchy = CacheHierarchy(1)
    hierarchy.access(0, 0x5000, now=0)
    level, _ = hierarchy.access(0, 0x5000, now=10_000_000)
    assert level == "dram"
    assert hierarchy.dram_accesses == 2


def test_latency_ordering():
    lat = CacheLatencies()
    assert lat.l1 < lat.l2 < lat.llc < lat.dram


def _chained_access(hierarchy, core, addr, now):
    """``CacheHierarchy.access`` as its chain of Cache.lookup/Cache.fill
    calls: L1, then L2, then the LLC, then DRAM; the satisfying level
    fills every level above it."""
    lat = hierarchy.latencies
    l1, l2, llc = hierarchy.l1[core], hierarchy.l2[core], hierarchy.llc
    if l1.lookup(addr, now):
        return "l1", lat.l1
    if l2.lookup(addr, now):
        l1.fill(addr, now)
        return "l2", lat.l2
    if llc.lookup(addr, now):
        level, cycles = "llc", lat.llc
    else:
        hierarchy.dram_accesses += 1
        llc.fill(addr, now)
        level, cycles = "dram", lat.dram
    l2.fill(addr, now)
    l1.fill(addr, now)
    return level, cycles


def _state(hierarchy):
    return hierarchy.dram_accesses, [
        (cache.hits, cache.misses,
         {index: list(lines.items()) for index, lines in cache._sets.items()})
        for cache in hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    ]


@settings(max_examples=150, deadline=None)
@example(  # a scan past every level's capacity, then re-reads that hit
    # the L2 behind its MRU end (8), miss to DRAM (0) and hit the LLC (39)
    decay=None, llc_decay=None,
    refs=[(0, line, 1) for line in range(40)]
    + [(0, 8, 1), (0, 0, 1), (1, 39, 1)],
)
@given(
    decay=st.one_of(st.none(), st.integers(1, 60)),
    llc_decay=st.one_of(st.none(), st.integers(1, 200)),
    refs=st.lists(
        st.tuples(
            st.integers(0, 1),  # core
            st.integers(0, 47),  # line
            st.integers(0, 25),  # cycles since the previous reference
        ),
        max_size=120,
    ),
)
def test_access_equals_the_chain_of_lookups_and_fills(decay, llc_decay, refs):
    """Tiny caches (two 8-way L1 sets, four 8-way L2 sets, one 16-way
    LLC set) so sets fill, evict and decay, and L2 hits are common."""
    def build():
        return CacheHierarchy(
            2, l1_bytes=16 * LINE_BYTES, l2_bytes=32 * LINE_BYTES,
            llc_bytes_per_core=8 * LINE_BYTES,
            decay_cycles=decay, llc_decay_cycles=llc_decay,
        )

    fast, chained = build(), build()
    now = 0
    for core, line, gap in refs:
        now += gap
        addr = line * LINE_BYTES + gap % LINE_BYTES
        assert fast.access(core, addr, now) == _chained_access(
            chained, core, addr, now
        )
        assert _state(fast) == _state(chained)
