"""Per-core L1 TLBs, split by page size as on Intel Haswell (§IV).

Haswell keeps separate single-cycle L1 TLBs per page size: 64-entry
4-way for 4KB pages, 32-entry 4-way for 2MB pages, and a 4-entry array
for 1GB pages, all accessed in parallel with the VIPT L1 cache.  The
simulator knows the backing page size of each reference (the lookups
happen in parallel in hardware), so it probes the matching array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.tlb.set_assoc import Key, SetAssociativeTLB, SetGroups
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K


@dataclass(frozen=True)
class L1TlbConfig:
    """Entry counts / associativity of the per-page-size L1 arrays."""

    entries_4k: int = 64
    ways_4k: int = 4
    entries_2m: int = 32
    ways_2m: int = 4
    entries_1g: int = 4
    ways_1g: int = 4
    lookup_cycles: int = 1

    def scaled(self, factor: float) -> "L1TlbConfig":
        """Scale L1 capacities (Fig 6's 0.5x / 1.5x L1 sweeps)."""

        def scale(entries: int, ways: int) -> int:
            return max(ways, int(round(entries * factor / ways)) * ways)

        return L1TlbConfig(
            entries_4k=scale(self.entries_4k, self.ways_4k),
            ways_4k=self.ways_4k,
            entries_2m=scale(self.entries_2m, self.ways_2m),
            ways_2m=self.ways_2m,
            entries_1g=scale(self.entries_1g, self.ways_1g),
            ways_1g=self.ways_1g,
            lookup_cycles=self.lookup_cycles,
        )


class L1Tlb:
    """The three per-page-size L1 arrays of one core."""

    def __init__(self, config: L1TlbConfig = L1TlbConfig()) -> None:
        self.config = config
        # Lazy sets: a 1024-tile system builds 3072 L1 arrays, most of
        # whose sets a short trace never touches; the engine's compile
        # fast path materialises on demand.
        self._arrays: Dict[int, SetAssociativeTLB] = {
            PAGE_4K: SetAssociativeTLB(
                config.entries_4k, config.ways_4k, "l1-4k", lazy_sets=True
            ),
            PAGE_2M: SetAssociativeTLB(
                config.entries_2m, config.ways_2m, "l1-2m", lazy_sets=True
            ),
            PAGE_1G: SetAssociativeTLB(
                config.entries_1g, min(config.ways_1g, config.entries_1g),
                "l1-1g", lazy_sets=True,
            ),
        }

    def array(self, page_size: int) -> SetAssociativeTLB:
        return self._arrays[page_size]

    def group(self, entries: Iterable[Key]) -> Dict[int, SetGroups]:
        """``entries`` bucketed by page-size array, then by set.  Every
        core's L1 has one geometry, so one grouping serves the chip."""
        by_size: Dict[int, List[Key]] = {}
        for key in entries:
            by_size.setdefault(key[1], []).append(key)
        return {
            size: self._arrays[size].group(keys)
            for size, keys in by_size.items()
        }

    def invalidate_grouped(self, groups: Dict[int, SetGroups]) -> int:
        arrays = self._arrays
        return sum(
            arrays[size].invalidate_grouped(sets)
            for size, sets in groups.items()
        )

    def flush(self) -> int:
        return sum(array.flush() for array in self._arrays.values())

    @property
    def hits(self) -> int:
        return sum(array.hits for array in self._arrays.values())

    @property
    def misses(self) -> int:
        return sum(array.misses for array in self._arrays.values())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
