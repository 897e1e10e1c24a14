"""Set-associative cache model used for page-table-walk latency.

The paper's "variable" page-table-walk latency comes from where the
page-table entries happen to reside in the data cache hierarchy (§V,
Table III): most walk references hit in the LLC, giving walks of 20-40
cycles, with occasional DRAM trips.

Only walk traffic flows through this model (simulating the full demand
stream through the caches would dominate runtime without changing TLB
behaviour), so demand-traffic pollution is approximated by *decay*:
a line older than ``decay_cycles`` counts as evicted.  Decay defaults
are tuned so steady-state walk latencies land in the paper's 20-40
cycle band (validated by tests).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Optional

LINE_BYTES = 64


class Cache:
    """One level of set-associative cache with LRU and optional decay."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        decay_cycles: Optional[int] = None,
    ) -> None:
        num_lines = size_bytes // LINE_BYTES
        if num_lines < ways or num_lines % ways:
            raise ValueError(f"{name}: {size_bytes}B / {ways} ways is not valid")
        self.name = name
        self.ways = ways
        self.num_sets = num_lines // ways
        self.decay_cycles = decay_cycles
        # One OrderedDict per set, built on first touch: line address ->
        # last-touch cycle, least recently used first.
        self._sets: "DefaultDict[int, OrderedDict[int, int]]" = defaultdict(
            OrderedDict
        )
        self.hits = 0
        self.misses = 0

    def _set_for(self, line_addr: int) -> "OrderedDict[int, int]":
        return self._sets[line_addr % self.num_sets]

    def lookup(self, addr: int, now: int) -> bool:
        """Probe (and on hit, touch) the line holding ``addr``."""
        line_addr = addr // LINE_BYTES
        cache_set = self._set_for(line_addr)
        stamp = cache_set.get(line_addr)
        if stamp is not None:
            if self.decay_cycles is not None and now - stamp > self.decay_cycles:
                del cache_set[line_addr]  # decayed: evicted by demand traffic
            else:
                cache_set.move_to_end(line_addr)
                cache_set[line_addr] = now
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill(self, addr: int, now: int) -> None:
        """Install the line holding ``addr``, evicting LRU if needed."""
        line_addr = addr // LINE_BYTES
        cache_set = self._set_for(line_addr)
        if line_addr not in cache_set and len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
        cache_set[line_addr] = now
        cache_set.move_to_end(line_addr)

    def invalidate_all(self) -> None:
        self._sets.clear()


@dataclass(frozen=True)
class CacheLatencies:
    """Access latencies of the Haswell-like hierarchy (§IV) in cycles."""

    l1: int = 4
    l2: int = 12
    llc: int = 50
    dram: int = 300


class CacheHierarchy:
    """Per-core L1/L2 backed by a shared LLC, for walk references.

    ``access`` returns ``(level_name, latency_cycles)`` for the level
    that satisfied the reference and fills all levels above it.
    """

    def __init__(
        self,
        num_cores: int,
        latencies: CacheLatencies = CacheLatencies(),
        l1_bytes: int = 32 * 1024,
        l2_bytes: int = 256 * 1024,
        llc_bytes_per_core: int = 8 * 1024 * 1024,
        decay_cycles: Optional[int] = 1_200,
        llc_decay_cycles: Optional[int] = 14_000,
    ) -> None:
        self.latencies = latencies
        self.l1 = [
            Cache(f"l1[{core}]", l1_bytes, 8, decay_cycles)
            for core in range(num_cores)
        ]
        self.l2 = [
            Cache(f"l2[{core}]", l2_bytes, 8, decay_cycles)
            for core in range(num_cores)
        ]
        self.llc = Cache("llc", llc_bytes_per_core * num_cores, 16, llc_decay_cycles)
        self.dram_accesses = 0

    def access(self, core: int, addr: int, now: int) -> tuple:
        # Cache.lookup down the levels, then Cache.fill back up,
        # open-coded: walk traffic makes this the hottest simulator loop
        # after the L2-TLB transaction.  The line address is computed
        # once, and a missed line is absent (a decayed one is deleted),
        # so each fill is a plain append with LRU eviction on a full set.
        # A hit moves its line rather than popping and reinserting it,
        # which would churn the set's hash table into resizes.
        line = addr // LINE_BYTES
        lat = self.latencies
        l1 = self.l1[core]
        set1 = l1._sets[line % l1.num_sets]
        stamp = set1.get(line)
        if stamp is not None:
            decay = l1.decay_cycles
            if decay is None or now - stamp <= decay:
                set1.move_to_end(line)
                set1[line] = now
                l1.hits += 1
                return "l1", lat.l1
            del set1[line]  # decayed: evicted by demand traffic
        l1.misses += 1
        l2 = self.l2[core]
        set2 = l2._sets[line % l2.num_sets]
        stamp = set2.get(line)
        decay = l2.decay_cycles
        if stamp is not None and (decay is None or now - stamp <= decay):
            set2.move_to_end(line)
            set2[line] = now
            l2.hits += 1
            level, cycles = "l2", lat.l2
        else:
            if stamp is not None:
                del set2[line]
            l2.misses += 1
            llc = self.llc
            set3 = llc._sets[line % llc.num_sets]
            stamp = set3.get(line)
            decay = llc.decay_cycles
            if stamp is not None and (decay is None or now - stamp <= decay):
                set3.move_to_end(line)
                set3[line] = now
                llc.hits += 1
                level, cycles = "llc", lat.llc
            else:
                if stamp is not None:
                    del set3[line]
                llc.misses += 1
                self.dram_accesses += 1
                if len(set3) >= llc.ways:
                    set3.popitem(last=False)
                set3[line] = now
                level, cycles = "dram", lat.dram
            if len(set2) >= l2.ways:
                set2.popitem(last=False)
            set2[line] = now
        if len(set1) >= l1.ways:
            set1.popitem(last=False)
        set1[line] = now
        return level, cycles
