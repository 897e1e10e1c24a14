"""Shared last-level TLB structures: monolithic banked and distributed.

Both organisations hold the same logical content — one copy of every
translation, hashed to a bank/slice by low-order page-number bits
(§III-A) — but differ physically:

* :class:`MonolithicSharedTlb` is one large structure at a fixed chip
  location, split into a few banks (Fig 1c; the paper settles on 4
  banks for 16/32 cores, 8 for 64).  Its lookup latency is that of the
  large SRAM array.
* :class:`DistributedSharedTlb` is an array of per-tile slices (Fig 1d),
  each the size of (or, for NOCSTAR's area-normalised configuration,
  slightly smaller than) a private L2 TLB, so each lookup is fast; the
  cost moves into the interconnect, which the simulator layer models.

Port contention (2R/1W, pipelined — one access can start per cycle per
port, §IV) is tracked here via per-bank/slice reservation state.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional

from repro.core.indexing import IndexFn, modulo_index
from repro.core.occupancy import first_free, retire_below
from repro.mem import sram
from repro.tlb.set_assoc import Key, SetAssociativeTLB
from repro.vm.address import PAGE_1G


#: Arbitration modes for the per-bank/slice ports.
FIFO = "fifo"
PRIORITY = "priority"

#: Service classes under priority arbitration (lower wins): shootdown
#: invalidations preempt demand walks/fills, which preempt prefetches.
SHOOTDOWN_CLASS = 0
WALK_CLASS = 1
PREFETCH_CLASS = 2


class _PortSet:
    """Pipelined access ports: one new access per port per cycle.

    Occupancy is tracked per cycle (not as a busy-until watermark) so
    the engine's bounded out-of-order reservations only conflict when
    two accesses genuinely claim the same cycle — see the reservation
    note in :mod:`repro.core.nocstar`.

    Under ``priority`` arbitration, a contended reservation of service
    class ``klass > 0`` yields ``klass`` extra cycles to whatever beat
    it and re-arbitrates from there (shootdown > walk > prefetch, per
    the priority-traffic-classes model in PAPERS.md).  Class-0 traffic
    and every uncontended access follow the FIFO arithmetic exactly, so
    ``fifo`` mode — and every class-0 reservation — is byte-identical
    to the historical behaviour.
    """

    def __init__(self, num_ports: int, priority: bool = False) -> None:
        self.num_ports = num_ports
        self.priority = priority
        self._starts: Dict[int, int] = {}  # cycle -> accesses started
        #: Full cycle -> a later cycle, every cycle between them full
        #: too (see :mod:`repro.core.occupancy`).  A full cycle stays
        #: full until it is retired, so an entry never goes stale.
        self._skip: Dict[int, int] = {}
        self.conflict_cycles = 0

    def retire(self, horizon: int) -> None:
        """Forget the starts below ``horizon``, which no later
        reservation probes (conflict cycles are a running total)."""
        if self._starts:
            retire_below(horizon, self._starts, self._skip)

    def _full(self) -> Container[int]:
        """The cycles whose every port has started an access: the
        started cycles themselves when there is one port."""
        if self.num_ports == 1:
            return self._starts
        return _FullCycles(self._starts, self.num_ports)

    def reserve(self, now: int, klass: int = 0) -> int:
        """Return the cycle the access can start (>= now)."""
        start = now
        starts = self._starts
        if starts.get(start, 0) >= self.num_ports:
            full = self._full()
            start = first_free(start, full, self._skip)
            if klass and self.priority:
                # Lower-priority traffic lost the arbitration: pay the
                # class penalty, then take the next genuinely free cycle.
                start = first_free(start + klass, full, self._skip)
            self.conflict_cycles += start - now
        starts[start] = starts.get(start, 0) + 1
        return start

    def reserve_many(self, now: int, count: int) -> int:
        """Back-to-back class-0 accesses (invalidation sweeps); returns
        the last one's start.

        Each access takes the first cycle with a free port at or after
        the previous one's start, as ``count`` chained :meth:`reserve`
        calls would, and the conflict cycles those calls would charge
        telescope to the last start minus ``now``.  A run of full cycles
        is crossed through the skip map, so sweeps that arrive inside
        the same busy run do not rescan it.
        """
        starts = self._starts
        full = self._full()
        skip = self._skip
        ports = self.num_ports
        start = cycle = now
        for _ in range(count):
            start = first_free(cycle, full, skip)
            used = starts[start] = starts.get(start, 0) + 1
            # The next access cannot start in a cycle this one filled.
            cycle = start + 1 if used >= ports else start
        self.conflict_cycles += start - now
        return start


class _FullCycles:
    """The full cycles of a port set with ``ports`` ports, as a
    container over its start counts."""

    __slots__ = ("starts", "ports")

    def __init__(self, starts: Dict[int, int], ports: int) -> None:
        self.starts = starts
        self.ports = ports

    def __contains__(self, cycle: object) -> bool:
        return self.starts.get(cycle, 0) >= self.ports


class _ShardedTlb:
    """Common machinery: N arrays selected by low page-number bits."""

    def __init__(
        self,
        total_entries: int,
        ways: int,
        num_shards: int,
        name: str,
        read_ports: int = 2,
        write_ports: int = 1,
        indexer: IndexFn = modulo_index,
        policy: str = "lru",
        arbitration: str = FIFO,
    ) -> None:
        if total_entries % num_shards:
            raise ValueError("entries must divide evenly across shards")
        if arbitration not in (FIFO, PRIORITY):
            raise ValueError(f"unknown arbitration mode: {arbitration!r}")
        self.num_shards = num_shards
        self._indexer = indexer
        self.policy = policy
        self.arbitration = arbitration
        self.entries_per_shard = total_entries // num_shards
        shift = max(num_shards - 1, 0).bit_length()  # log2 for power of two
        self.shards: List[SetAssociativeTLB] = [
            SetAssociativeTLB(
                self.entries_per_shard, ways, f"{name}[{i}]",
                index_shift=shift, policy=policy, lazy_sets=True,
            )
            for i in range(num_shards)
        ]
        prio = arbitration == PRIORITY
        self.read_ports = [
            _PortSet(read_ports, priority=prio) for _ in range(num_shards)
        ]
        self.write_ports = [
            _PortSet(write_ports, priority=prio) for _ in range(num_shards)
        ]

    def home(self, page_number: int, asid: int = 0) -> int:
        """Shard holding a translation (configurable indexing, §III-A)."""
        return self._indexer(asid, page_number, self.num_shards)

    @staticmethod
    def caches(page_size: int) -> bool:
        return page_size != PAGE_1G

    def insert_page_number(
        self, asid: int, page_size: int, page_number: int
    ) -> Optional[Key]:
        """Insert by size-granular page number (prefetch path)."""
        if not self.caches(page_size):
            return None
        return self.shards[self.home(page_number, asid)].insert(
            asid, page_size, page_number
        )

    def lookup_page_number(
        self,
        asid: int,
        page_size: int,
        page_number: int,
        shard: Optional[int] = None,
    ) -> bool:
        """Probe by size-granular page number (simulator fast path)."""
        if shard is None:
            shard = self.home(page_number, asid)
        if not self.caches(page_size):
            self.shards[shard].misses += 1
            return False
        return self.shards[shard].lookup(asid, page_size, page_number)

    #: Former names of the two methods above, still listed as wrap
    #: targets by benchmarks/e2e/layers.py.
    lookup = lookup_page_number
    insert = insert_page_number

    def probe_page_number(
        self, asid: int, page_size: int, page_number: int
    ) -> bool:
        """Presence check without LRU/counter side effects."""
        if not self.caches(page_size):
            return False
        return self.shards[self.home(page_number, asid)].probe(
            asid, page_size, page_number
        )

    def invalidate(self, asid: int, page_size: int, page_number: int) -> bool:
        return self.shards[self.home(page_number, asid)].invalidate(
            asid, page_size, page_number
        )

    def group_by_home(self, entries: Iterable[Key]) -> Dict[int, List[Key]]:
        """``entries`` bucketed by home shard (duplicates kept)."""
        home = self.home
        by_home: Dict[int, List[Key]] = {}
        for key in entries:
            by_home.setdefault(home(key[2], key[0]), []).append(key)
        return by_home

    def invalidate_grouped(self, by_home: Dict[int, List[Key]]) -> int:
        """:meth:`invalidate` of every entry, shard by shard and set by
        set; returns how many were resident."""
        shards = self.shards
        return sum(
            shards[home].invalidate_grouped(shards[home].group(keys))
            for home, keys in by_home.items()
        )

    def reserve_read(self, shard: int, now: int, klass: int = 0) -> int:
        return self.read_ports[shard].reserve(now, klass)

    def reserve_write(self, shard: int, now: int, klass: int = 0) -> int:
        return self.write_ports[shard].reserve(now, klass)

    def flush(self) -> int:
        return sum(shard.flush() for shard in self.shards)

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self.shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self.shards)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def total_entries(self) -> int:
        return self.entries_per_shard * self.num_shards


class MonolithicSharedTlb(_ShardedTlb):
    """Fig 1c: one big banked structure at a fixed location.

    Banking buys port bandwidth (one access per bank per cycle), not
    latency: the global wordline/H-tree of the large structure still
    dominates, so lookup latency follows the *total* capacity (the
    paper's 32x structure takes ~16 cycles even with zero-latency
    interconnect, Fig 4) plus the bank-select mux.
    """

    #: Extra cycles per direction to get on/off the monolithic macro:
    #: the structure sits at one end of the chip beyond the mesh edge
    #: (§II-C), and its request/response must cross the global H-tree
    #: feeding a multi-bank macro the size of tens of private TLBs.
    INGRESS_CYCLES = 8

    def __init__(
        self,
        total_entries: int,
        num_banks: int = 4,
        ways: int = 8,
        indexer: IndexFn = modulo_index,
        policy: str = "lru",
        arbitration: str = FIFO,
    ) -> None:
        super().__init__(total_entries, ways, num_banks, "mono-bank",
                         indexer=indexer, policy=policy,
                         arbitration=arbitration)
        # + 1: the bank-select mux / H-tree in front of the banks.
        self.lookup_cycles = sram.lookup_cycles(total_entries) + 1

    @staticmethod
    def banks_for(num_cores: int) -> int:
        """The paper's best-performing banking: 4 banks at 16/32 cores, 8 at 64+.

        Beyond the paper's 64-core ceiling the banking keeps scaling at
        the same cores-per-bank ratio (one bank per 8 cores, capped at
        32) so mega-mesh monolithic configs don't serialise a thousand
        cores behind 8 ports.  Counts at <=64 cores are untouched.
        """
        if num_cores >= 256:
            return min(32, num_cores // 8)
        return 8 if num_cores >= 64 else 4


class DistributedSharedTlb(_ShardedTlb):
    """Fig 1d: one slice per tile; slice lookup is a small-array access."""

    def __init__(
        self,
        num_slices: int,
        entries_per_slice: int = 1024,
        ways: int = 8,
        indexer: IndexFn = modulo_index,
        policy: str = "lru",
        arbitration: str = FIFO,
    ) -> None:
        super().__init__(
            entries_per_slice * num_slices, ways, num_slices, "slice",
            indexer=indexer, policy=policy, arbitration=arbitration,
        )
        self.lookup_cycles = sram.lookup_cycles(entries_per_slice)
