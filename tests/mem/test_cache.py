"""Data-cache model used for walk latency."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mem.cache import Cache, CacheHierarchy, CacheLatencies, LINE_BYTES

#: The line number of the walk reference the hierarchy tests make.
LINE = 0x5000 // LINE_BYTES


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


def test_hierarchy_first_access_is_dram():
    hierarchy = CacheHierarchy(2)
    level, latency = hierarchy.access(0, LINE, now=0)
    assert level == "dram"
    assert latency == CacheLatencies().dram


def test_hierarchy_second_access_hits_l1():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, LINE, now=0)
    level, latency = hierarchy.access(0, LINE, now=1)
    assert level == "l1"
    assert latency == CacheLatencies().l1


def test_hierarchy_llc_is_shared_between_cores():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, LINE, now=0)  # core 0 brings it into LLC
    level, _ = hierarchy.access(1, LINE, now=1)
    assert level == "llc"  # core 1's L1/L2 are cold, LLC shared


def test_hierarchy_private_levels_not_shared():
    hierarchy = CacheHierarchy(2)
    hierarchy.access(0, LINE, now=0)
    hierarchy.access(0, LINE, now=1)  # now in core 0's L1
    level, _ = hierarchy.access(1, LINE, now=2)
    assert level == "llc"


def test_hierarchy_decay_sends_back_to_dram():
    hierarchy = CacheHierarchy(1)
    hierarchy.access(0, LINE, now=0)
    level, _ = hierarchy.access(0, LINE, now=10_000_000)
    assert level == "dram"
    assert hierarchy.dram_accesses == 2


def test_latency_ordering():
    lat = CacheLatencies()
    assert lat.l1 < lat.l2 < lat.llc < lat.dram


def _chained_access(hierarchy, core, addr, now):
    """``CacheHierarchy.access`` of the line holding ``addr`` as its
    chain of Cache.lookup/Cache.fill calls: L1, then L2, then the LLC,
    then DRAM; the satisfying level fills every level above it."""
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
        assert fast.access(core, line, now) == _chained_access(
            chained, core, addr, now
        )
        assert _state(fast) == _state(chained)


# ----------------------------------------------------------------------
# Against the spec


class SpecLevel:
    """One cache level as the module docstring states it, with no dict
    order involved: per set a recency list of ``(line, last touch)``,
    least recent first.  A probed line older than the decay counts as
    evicted, and a fill into a full set evicts the least recent line."""

    def __init__(self, size_bytes, ways, decay):
        self.ways = ways
        self.decay = decay
        self.sets = [[] for _ in range(size_bytes // LINE_BYTES // ways)]
        self.hits = self.misses = 0
        self.evictions = self.decays = 0

    def lookup(self, line, now):
        lines = self.sets[line % len(self.sets)]
        for i, (resident, touched) in enumerate(lines):
            if resident == line:
                del lines[i]
                if self.decay is None or now - touched <= self.decay:
                    lines.append((line, now))
                    self.hits += 1
                    return True
                self.decays += 1
                break
        self.misses += 1
        return False

    def fill(self, line, now):
        lines = self.sets[line % len(self.sets)]
        lines[:] = [entry for entry in lines if entry[0] != line]
        if len(lines) == self.ways:
            del lines[0]
            self.evictions += 1
        lines.append((line, now))

    def state(self):
        """Counters and every non-empty set, least recent line first."""
        sets = {i: lines for i, lines in enumerate(self.sets) if lines}
        return self.hits, self.misses, sets


def _level_state(cache):
    sets = {
        i: list(lines.items()) for i, lines in cache._sets.items() if lines
    }
    return cache.hits, cache.misses, sets


class SpecHierarchy:
    """Per-core L1 and L2 over one LLC: a reference probes the levels
    in order, and the level that satisfies it (DRAM past the LLC) fills
    every level above it."""

    def __init__(self, cores, l1_bytes, l2_bytes, llc_bytes, decay, llc_decay):
        self.l1 = [SpecLevel(l1_bytes, 8, decay) for _ in range(cores)]
        self.l2 = [SpecLevel(l2_bytes, 8, decay) for _ in range(cores)]
        self.llc = SpecLevel(llc_bytes, 16, llc_decay)
        self.latencies = CacheLatencies()
        self.dram_accesses = 0

    def access(self, core, line, now):
        levels = (("l1", self.l1[core]), ("l2", self.l2[core]),
                  ("llc", self.llc))
        for depth, (name, level) in enumerate(levels):
            if level.lookup(line, now):
                break
        else:
            name, depth = "dram", len(levels)
            self.dram_accesses += 1
        for _, level in levels[:depth]:
            level.fill(line, now)
        return name, getattr(self.latencies, name)

    def state(self):
        return self.dram_accesses, [
            level.state() for level in self.l1 + self.l2 + [self.llc]
        ]


#: Two 8-way L1 sets, four 8-way L2 sets and one 16-way LLC set per
#: core: capacity evictions, decays and L2 hits are all common.
TINY = dict(l1_bytes=16 * LINE_BYTES, l2_bytes=32 * LINE_BYTES)


def _tiny_pair(cores, decay, llc_decay):
    real = CacheHierarchy(
        cores, llc_bytes_per_core=8 * LINE_BYTES,
        decay_cycles=decay, llc_decay_cycles=llc_decay, **TINY,
    )
    spec = SpecHierarchy(
        cores, llc_bytes=cores * 8 * LINE_BYTES,
        decay=decay, llc_decay=llc_decay, **TINY,
    )
    return real, spec


def _hierarchy_state(hierarchy):
    return hierarchy.dram_accesses, [
        _level_state(cache)
        for cache in hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    ]


#: References: (core, line, cycles since the previous reference); a
#: negative gap is a reference resolved slightly out of time order.
spec_refs = st.lists(
    st.tuples(
        st.integers(0, 1), st.integers(0, 47), st.integers(-3, 25),
    ),
    max_size=150,
)


@settings(max_examples=150, deadline=None)
@given(
    decay=st.one_of(st.none(), st.integers(1, 200)),
    llc_decay=st.one_of(st.none(), st.integers(1, 200)),
    refs=spec_refs,
)
def test_hierarchy_access_matches_the_spec(decay, llc_decay, refs):
    """``CacheHierarchy.access`` returns the spec's level and latency
    and leaves every level with the spec's counters and recency lists."""
    real, spec = _tiny_pair(2, decay, llc_decay)
    now = 100
    for core, line, gap in refs:
        now += gap
        assert real.access(core, line, now) == spec.access(core, line, now)
        assert _hierarchy_state(real) == spec.state()


@settings(max_examples=150, deadline=None)
@given(
    decay=st.one_of(st.none(), st.integers(1, 60)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("lookup", "fill")),
            st.integers(0, 23),  # line
            st.integers(0, LINE_BYTES - 1),  # byte within the line
            st.integers(-3, 25),  # cycles since the previous op
        ),
        max_size=120,
    ),
)
def test_cache_lookup_and_fill_match_the_spec(decay, ops):
    """One 8-way, two-set level: ``Cache.lookup`` and ``Cache.fill`` of
    any byte of a line act as the spec's probe and fill of that line."""
    cache = Cache("c", 16 * LINE_BYTES, 8, decay)
    spec = SpecLevel(16 * LINE_BYTES, 8, decay)
    now = 100
    for op, line, offset, gap in ops:
        now += gap
        addr = line * LINE_BYTES + offset
        assert getattr(cache, op)(addr, now) == getattr(spec, op)(line, now)
        assert _level_state(cache) == spec.state()


def test_tiny_hierarchy_evicts_decays_and_hits_every_level():
    """The tiny geometry the spec tests use exercises every path: a
    seeded run evicts by capacity and decays at every level, and hits
    L1, L2 and the LLC, all as the spec does."""
    rng = random.Random(7)
    real, spec = _tiny_pair(2, 120, 50)
    levels = {"l1": 0, "l2": 0, "llc": 0, "dram": 0}
    now = 0
    for _ in range(3_000):
        now += rng.randrange(6)
        core, line = rng.randrange(2), rng.randrange(48)
        level, cycles = real.access(core, line, now)
        assert (level, cycles) == spec.access(core, line, now)
        levels[level] += 1
    assert _hierarchy_state(real) == spec.state()
    assert all(levels.values()), levels
    for group in (spec.l1, spec.l2, [spec.llc]):
        assert sum(level.evictions for level in group) > 0
        assert sum(level.decays for level in group) > 0
