"""Per-core private L2 TLB — the paper's baseline (§IV).

Haswell private L2 TLBs: 1024 entries, 8-way associative, holding 4KB
and 2MB translations concurrently, 9-cycle lookup (post-synthesis SRAM
and Intel manuals agree).  1GB translations are not cached at L2 and
miss straight to the page-table walker, as on real Haswell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem import sram
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_1G


@dataclass(frozen=True)
class L2TlbConfig:
    """Size/associativity of one private L2 TLB (or one shared slice)."""

    entries: int = 1024
    ways: int = 8
    #: Replacement policy (repro.tlb.policies registry name).
    policy: str = "lru"

    @property
    def lookup_cycles(self) -> int:
        return sram.lookup_cycles(self.entries)


class PrivateL2Tlb:
    """One core's private L2 TLB."""

    def __init__(self, config: L2TlbConfig = L2TlbConfig()) -> None:
        self.config = config
        self.array = SetAssociativeTLB(
            config.entries, config.ways, "l2-private", policy=config.policy
        )
        self.lookup_cycles = config.lookup_cycles

    @staticmethod
    def caches(page_size: int) -> bool:
        """Whether this level holds translations of ``page_size``."""
        return page_size != PAGE_1G

    def lookup_page_number(
        self, asid: int, page_size: int, page_number: int
    ) -> bool:
        """Probe by size-granular page number (simulator fast path)."""
        if not self.caches(page_size):
            self.array.misses += 1
            return False
        return self.array.lookup(asid, page_size, page_number)

    def insert_page_number(
        self, asid: int, page_size: int, page_number: int
    ) -> None:
        if self.caches(page_size):
            self.array.insert(asid, page_size, page_number)

    #: Former names of the two methods above, still listed as wrap
    #: targets by benchmarks/e2e/layers.py.
    lookup = lookup_page_number
    insert = insert_page_number

    def invalidate(self, asid: int, page_size: int, page_number: int) -> bool:
        return self.array.invalidate(asid, page_size, page_number)

    def flush(self) -> int:
        return self.array.flush()

    @property
    def hits(self) -> int:
        return self.array.hits

    @property
    def misses(self) -> int:
        return self.array.misses

    @property
    def accesses(self) -> int:
        return self.array.hits + self.array.misses
