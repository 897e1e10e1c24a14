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

import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Optional, Tuple

#: ``addr >> LINE_SHIFT`` is the number of the line holding ``addr``.
LINE_SHIFT = 6
LINE_BYTES = 1 << LINE_SHIFT


class Cache:
    """One level of set-associative cache with LRU and optional decay.

    Each set is a plain dict, line number -> last-touch cycle, whose
    insertion order is its LRU order (least recent first): a touch pops
    the line and re-inserts it at the end, and a fill into a full set
    evicts the first line.  Sets are built on first touch.
    """

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
        #: The greatest age (cycles since its last touch) at which a
        #: line still hits: the decay window, or unbounded.
        self.max_age = sys.maxsize if decay_cycles is None else decay_cycles
        self._sets: DefaultDict[int, Dict[int, int]] = defaultdict(dict)
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int, now: int) -> bool:
        """Probe (and on hit, touch) the line holding ``addr``."""
        line = addr >> LINE_SHIFT
        cache_set = self._sets[line % self.num_sets]
        # A decayed line stays popped: evicted by demand traffic.
        stamp = cache_set.pop(line, None)
        if stamp is not None and now - stamp <= self.max_age:
            cache_set[line] = now
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr: int, now: int) -> None:
        """Install the line holding ``addr``, evicting LRU if needed."""
        line = addr >> LINE_SHIFT
        cache_set = self._sets[line % self.num_sets]
        if cache_set.pop(line, None) is None and len(cache_set) >= self.ways:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = now


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
        #: What access returns, one tuple per level, built once.
        self._outcomes: Tuple[Tuple[str, int], ...] = (
            ("l1", latencies.l1), ("l2", latencies.l2),
            ("llc", latencies.llc), ("dram", latencies.dram),
        )

    def access(self, core: int, line: int, now: int) -> Tuple[str, int]:
        """Reference line number ``line`` from ``core`` at ``now``.

        :meth:`Cache.lookup` down the levels, then :meth:`Cache.fill`
        back up, open-coded: walk traffic makes this the hottest
        simulator loop after the L2-TLB transaction.  Each level's probe
        pops the line, so a hit re-inserts it at the set's MRU end and a
        miss leaves it absent (a decayed line evicted), and each fill is
        an append with LRU eviction on a full set.
        """
        l1_hit, l2_hit, llc_hit, dram = self._outcomes
        l1 = self.l1[core]
        set1 = l1._sets[line % l1.num_sets]
        stamp = set1.pop(line, None)
        if stamp is not None and now - stamp <= l1.max_age:
            set1[line] = now
            l1.hits += 1
            return l1_hit
        l1.misses += 1
        l2 = self.l2[core]
        set2 = l2._sets[line % l2.num_sets]
        stamp = set2.pop(line, None)
        if stamp is not None and now - stamp <= l2.max_age:
            l2.hits += 1
            outcome = l2_hit
        else:
            l2.misses += 1
            llc = self.llc
            set3 = llc._sets[line % llc.num_sets]
            stamp = set3.pop(line, None)
            if stamp is not None and now - stamp <= llc.max_age:
                llc.hits += 1
                outcome = llc_hit
            else:
                llc.misses += 1
                self.dram_accesses += 1
                outcome = dram
                if len(set3) >= llc.ways:
                    del set3[next(iter(set3))]
            set3[line] = now
            if len(set2) >= l2.ways:
                del set2[next(iter(set2))]
        set2[line] = now
        if len(set1) >= l1.ways:
            del set1[next(iter(set1))]
        set1[line] = now
        return outcome
