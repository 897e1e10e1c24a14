"""Page-table walkers: variable (cache-hierarchy) and fixed latency.

On an L2 TLB miss a hardware walker performs a serial pointer chase
through the radix table; each reference is satisfied wherever the entry
happens to sit in the cache hierarchy.  The paper reports typical walk
latencies of 20-40 cycles on real systems, with 70-87% of walks
touching the LLC or memory (§V Energy).  Table III additionally studies
fixed walk latencies of 10/20/40/80 cycles.

A small page-walk cache (PWC) holds upper-level entries (PML4/PDPT/PD),
as on real x86 cores [MICRO'13 "Large-reach MMU caches"]; it makes the
leaf PTE reference dominate walk latency, as observed in practice.

A walk names its translation by ``(asid, size, page_number)``, the key
the L2 transaction already holds, so no VPN is shifted out and back.  A
re-walk reads the page table's ``walk_memo`` directly; a first touch
builds the entry in one :meth:`~repro.vm.page_table.PageTable.walk_info`
call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK
from repro.vm.address import VPN_SHIFT
from repro.vm.page_table import PageTable, PTE


@dataclass
class WalkResult:
    """Outcome of one page-table walk."""

    latency: int
    pte: PTE
    levels: Tuple[str, ...] = ()
    #: References that missed the walking core's L1 (installed new lines
    #: there) — a proxy for how much the walk polluted that core's cache.
    pollution: int = 0


def _first_vpn(size: int, page_number: int) -> int:
    """The first 4KB VPN of page ``page_number`` at ``size``."""
    try:
        return page_number << VPN_SHIFT[size]
    except KeyError:
        raise ValueError(f"unsupported page size: {size}") from None


def _observe_walk(
    sink, core: int, vpn: int, now: int, latency: int
) -> None:
    """One walk's latency sample and begin/end events."""
    sink.observe("walk.latency", latency)
    sink.event(now, "walk_begin", core=core, vpn=vpn)
    sink.event(now + latency, "walk_end", core=core, latency=latency)


#: Walk levels that install no new line in the walking core's L1.
_NO_POLLUTION = ("pwc", "l1")


class PageTableWalker:
    """Variable-latency walker driven by the cache hierarchy."""

    PWC_HIT_CYCLES = 1

    def __init__(
        self,
        page_table: PageTable,
        hierarchy: CacheHierarchy,
        num_cores: int,
        pwc_entries: int = 16,
        sink=NULL_SINK,
    ) -> None:
        self.page_table = page_table
        self.hierarchy = hierarchy
        #: Per-core PWC: upper-level entry addresses, LRU first (1-cycle
        #: hit); walk_cycles probes and fills it.
        self.pwcs: "List[OrderedDict[int, None]]" = [
            OrderedDict() for _ in range(num_cores)
        ]
        self.pwc_entries = pwc_entries
        self.walks = 0
        self.sink = sink
        self.level_hits: Dict[str, int] = {
            "pwc": 0, "l1": 0, "l2": 0, "llc": 0, "dram": 0,
        }

    def walk(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> WalkResult:
        """Perform a serial walk at ``core``; returns latency and the PTE.

        :meth:`walk_cycles` plus the PTE, the level trace and the
        pollution tally (references that missed the walking core's L1).
        """
        levels: List[str] = []
        latency = self.walk_cycles(core, asid, size, page_number, now, levels)
        pte = self.page_table.walk_memo[asid, size, page_number][1]
        pollution = sum(level not in _NO_POLLUTION for level in levels)
        return WalkResult(
            latency=latency, pte=pte, levels=tuple(levels), pollution=pollution
        )

    def walk_cycles(
        self,
        core: int,
        asid: int,
        size: int,
        page_number: int,
        now: int,
        levels: Optional[List[str]] = None,
    ) -> int:
        """Walk to page ``page_number`` at ``size`` from ``core``;
        returns the walk's latency.

        Upper levels can hit the core's PWC; the leaf PTE never does.
        Every other reference goes through the cache hierarchy, and an
        upper level that missed the PWC is filled into it afterwards.
        ``levels``, when given, collects where each reference was
        satisfied.  Sink events are emitted only when the sink is
        enabled.  A walk is keyed by the ``(asid, size, page_number)``
        its caller holds: a re-walk reads the page table's memo
        directly, and a first touch builds the entry in one
        ``walk_info`` call (which rejects an unsupported size).
        """
        page_table = self.page_table
        addresses = (
            page_table.walk_memo.get((asid, size, page_number))
            or page_table.walk_info(asid, size, page_number)
        )[0]
        cached = self.pwcs[core]
        level_hits = self.level_hits
        access = self.hierarchy.access
        latency = hits = 0
        for addr in addresses[:-1]:
            if addr in cached:
                cached.move_to_end(addr)
                hits += 1
                latency += self.PWC_HIT_CYCLES
                if levels is not None:
                    levels.append("pwc")
                continue
            level, cycles = access(core, addr, now + latency)
            latency += cycles
            level_hits[level] += 1
            if levels is not None:
                levels.append(level)
            # The missed address is absent: the fill is an LRU append.
            if len(cached) >= self.pwc_entries:
                cached.popitem(last=False)
            cached[addr] = None
        # The leaf PTE.
        level, cycles = access(core, addresses[-1], now + latency)
        latency += cycles
        level_hits[level] += 1
        if levels is not None:
            levels.append(level)
        level_hits["pwc"] += hits
        self.walks += 1
        if self.sink.enabled:
            _observe_walk(
                self.sink, core, _first_vpn(size, page_number), now, latency
            )
        return latency


class FixedLatencyWalker:
    """Walker with a fixed latency (Table III's fixed-10/20/40/80)."""

    def __init__(self, page_table: PageTable, latency: int, sink=NULL_SINK) -> None:
        if latency <= 0:
            raise ValueError("walk latency must be positive")
        self.page_table = page_table
        self.latency = latency
        self.walks = 0
        self.sink = sink

    def walk(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> WalkResult:
        pte = self.page_table.map_translation(asid, size, page_number)
        self.walks += 1
        if self.sink.enabled:
            _observe_walk(
                self.sink, core, _first_vpn(size, page_number), now,
                self.latency,
            )
        return WalkResult(latency=self.latency, pte=pte, levels=("fixed",))

    def walk_cycles(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Latency-only variant matching :meth:`PageTableWalker.walk_cycles`.

        One ``map_translation`` call maps the page on a first touch (and
        rejects an unsupported size before the walk counts); a re-walk
        is one dict probe.  Sink events are emitted only when the sink
        is enabled.
        """
        self.page_table.map_translation(asid, size, page_number)
        self.walks += 1
        if self.sink.enabled:
            _observe_walk(
                self.sink, core, _first_vpn(size, page_number), now,
                self.latency,
            )
        return self.latency


@dataclass
class WalkerQueue:
    """Queues walks at one core's hardware walkers.

    Modern x86 cores keep two concurrent page walkers; a walk admitted
    while both are busy queues behind the earlier-finishing one.  The
    paper notes that performing walks at the remote node risks walker
    congestion when several cores miss to the same slice (§III-F) —
    this queue is what produces that effect.
    """

    num_walkers: int = 2
    queued_walks: int = 0
    total_queue_cycles: int = 0

    def __post_init__(self) -> None:
        if self.num_walkers < 1:
            raise ValueError("need at least one walker")
        self._busy_until = [0] * self.num_walkers

    def admit(self, now: int, latency: int) -> int:
        """Start a walk of ``latency`` cycles; return its completion time.

        The walk takes the earliest-free walker (ties: the lowest index).
        """
        busy = self._busy_until
        start = min(busy)
        walker = busy.index(start)
        if start > now:
            self.total_queue_cycles += start - now
            self.queued_walks += 1
        else:
            start = now
        done = busy[walker] = start + latency
        return done

    @property
    def busy_until(self) -> int:
        """Cycle at which the last-finishing walker frees up."""
        return max(self._busy_until)
