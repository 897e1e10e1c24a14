"""Set-associative TLB array with pluggable replacement, modulo indexed.

Matches the paper's assumptions (§III-E): lower-order virtual page
number bits choose the set (modulo indexing), LRU replacement by
default, and entries tagged with a context ID (ASID) plus a valid bit.
Entries are keyed ``(asid, page_size, page_number)`` so 4KB and 2MB
translations can coexist in one array, as in Haswell's unified L2 TLB.

``index_shift`` lets a distributed shared TLB skip the bits already
consumed by slice selection, so consecutive pages spread across both
slices and sets without aliasing.

``policy`` names the per-set replacement state machine
(:mod:`repro.tlb.policies`): ``lru`` (default, byte-identical to the
historical hardcoded behaviour), ``arc``, or ``twoq``.  The engine's
batched fast path replays each core's stream through scratch LRU sets
of its L1 arrays' geometry, so L1 TLBs must stay on the default policy;
L2 structures may run any.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.tlb.policies import POLICIES, make_policy

Key = Tuple[int, int, int]  # (asid, page_size, page_number)
#: Keys bucketed by the set they index: ``((set index, keys), ...)``.
SetGroups = Tuple[Tuple[int, FrozenSet[Key]], ...]


class SetAssociativeTLB:
    """One TLB SRAM array."""

    def __init__(
        self,
        entries: int,
        ways: int,
        name: str = "tlb",
        index_shift: int = 0,
        policy: str = "lru",
        lazy_sets: bool = False,
    ) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if ways > entries:
            # Degenerate but legal: a fully-associative structure smaller
            # than its nominal way count (e.g. the 4-entry 1GB L1 TLB).
            ways = entries
        if entries % ways:
            raise ValueError(f"{name}: {entries} entries not divisible by {ways} ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.index_shift = index_shift
        self.policy = policy
        # Hoist the registry dispatch out of the per-set loop: a
        # 1024-tile system builds ~10^5 sets, and the mega-mesh configs
        # pay this at every System construction.
        state_cls = POLICIES.get(policy)
        if state_cls is None:
            make_policy(policy, ways)  # raises the canonical KeyError
        self._state_cls = state_cls
        # ``lazy_sets`` defers per-set state construction until a set is
        # first indexed.  A fresh policy state observes nothing until
        # touched, so laziness is invisible to replacement behaviour;
        # aggregate views below simply skip unmaterialised sets, and
        # code that indexes ``_sets`` directly treats ``None`` as an
        # empty set.  The mega-mesh L2 slices and L1 arrays (10^5+
        # sets, mostly cold at 1024 tiles) opt in.
        if lazy_sets:
            self._sets = [None] * self.num_sets
        else:
            self._sets = [state_cls(ways) for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        #: QoS way-partitioning (the paper's future-work interference
        #: fix): when set, no ASID may occupy more than this many ways
        #: of any set — its own most-evictable entry is evicted instead
        #: of another context's.  None disables partitioning.
        self.way_quota: Optional[int] = None

    def _set_for(self, page_number: int):
        index = (page_number >> self.index_shift) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = self._state_cls(self.ways)
        return cache_set

    def lookup(self, asid: int, page_size: int, page_number: int) -> bool:
        """Probe the array; hits refresh replacement state."""
        # _set_for, open-coded here and in insert(): the reference drive
        # loop makes one lookup per trace record.
        index = (page_number >> self.index_shift) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = self._state_cls(self.ways)
        key = (asid, page_size, page_number)
        if key in cache_set:
            cache_set.touch(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, asid: int, page_size: int, page_number: int) -> bool:
        """Check presence without perturbing replacement state/counters.

        Policy states expose only *resident* membership through ``in``
        (never ghost history), so a probe can neither refresh recency
        nor leak an observation into ARC/2Q adaptation.
        """
        return (asid, page_size, page_number) in self._set_for(page_number)

    def insert(self, asid: int, page_size: int, page_number: int) -> Optional[Key]:
        """Install a translation; returns the evicted key, if any.

        Reinstalling a resident key is a refresh, not a replacement
        decision.  With a QoS way quota, an over-quota ASID evicts its
        own most-evictable entry — even when the set itself still has
        free ways — before the policy is consulted for capacity.
        """
        index = (page_number >> self.index_shift) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = self._state_cls(self.ways)
        key = (asid, page_size, page_number)
        evicted = None
        if key in cache_set:
            cache_set.touch(key)
        else:
            quota = self.way_quota
            if quota is not None:
                own = [k for k in cache_set.members() if k[0] == asid]
                if len(own) >= quota:
                    evicted = own[0]  # the ASID's own most-evictable entry
                    cache_set.remove(evicted)
                    self.evictions += 1
            spilled = cache_set.admit(key)
            if spilled is not None:
                evicted = spilled
                self.evictions += 1
        self.insertions += 1
        return evicted

    def invalidate(self, asid: int, page_size: int, page_number: int) -> bool:
        """Shoot down one translation; True if it was present.

        Also drops any ghost/history state the policy kept for the key
        — a remapped translation must not count as a ghost hit later.
        """
        return self._set_for(page_number).remove((asid, page_size, page_number))

    def group(self, keys: Iterable[Key]) -> SetGroups:
        """``keys`` bucketed by the set each indexes, for
        :meth:`invalidate_grouped` on any array of this geometry."""
        shift, num_sets = self.index_shift, self.num_sets
        buckets: Dict[int, Set[Key]] = {}
        for key in keys:
            buckets.setdefault((key[2] >> shift) % num_sets, set()).add(key)
        return tuple(
            (index, frozenset(bucket)) for index, bucket in buckets.items()
        )

    def invalidate_grouped(self, groups: SetGroups) -> int:
        """:meth:`invalidate` of every grouped key, one call per set;
        returns how many were resident.

        A set that is unmaterialised or falsy (no residents, no history)
        has nothing to drop, so it is skipped, and an unmaterialised set
        stays so.
        """
        sets = self._sets
        dropped = 0
        for index, keys in groups:
            cache_set = sets[index]
            if cache_set:
                dropped += cache_set.remove_many(keys)
        return dropped

    def invalidate_asid(self, asid: int) -> int:
        """Drop every translation belonging to ``asid`` (context teardown)."""
        return sum(
            cache_set.purge_asid(asid)
            for cache_set in self._sets
            if cache_set is not None
        )

    def flush(self) -> int:
        """Drop everything (full-TLB flush on context switch, §V storms).

        One pass that clears each set in place and counts what it held.
        ``filter`` skips unmaterialised and falsy sets in C: they already
        equal fresh ones.
        """
        dropped = 0
        for cache_set in filter(None, self._sets):
            dropped += len(cache_set)
            cache_set.clear()
        return dropped

    @property
    def occupancy(self) -> int:
        return sum(
            len(cache_set) for cache_set in self._sets if cache_set is not None
        )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def iter_keys(self) -> Iterator[Key]:
        for cache_set in self._sets:
            if cache_set is not None:
                yield from cache_set.members()
