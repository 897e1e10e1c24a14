"""Offline replacement-policy evaluation with a Belady (OPT) bound.

This module never runs inside the DES hot path.  It replays a
workload's *canonical offline stream* against the L2 structure geometry
of a :class:`~repro.sim.configs.SystemConfig` — same sharding, same set
indexing, same ``(asid, page_size, page_number)`` keys — under each
online policy from :mod:`repro.tlb.policies` and under Belady's OPT,
and reports per-slice and total hit rates.  The campaign layer turns
those into the ``%-of-OPT`` column.

Canonical stream
----------------
The offline order is the engine's statically deterministic interleave:
each core's SMT streams are merged round-robin
(:func:`~repro.workloads.trace.interleave_streams`, the order both
engine drive loops issue a core's records in), then the cores' merged
streams are merged by the same round robin, one record per core per
round.  It is *an* order, not *the* timing-dependent DES order — what
matters for the bound is that OPT and every online policy replay the
**same** sequence, which is what makes per-slice dominance
(hit-rate(OPT) >= hit-rate(policy)) hold by construction.

The replay models the L2 structure in isolation (no L1 filtering, no
QoS quota): every record is one structure access.  Online policies run
through the production :class:`~repro.tlb.set_assoc.SetAssociativeTLB`
code path (install on miss); OPT runs a mandatory-install Belady
replay, which is optimal among install-on-miss policies — exactly the
class every shipped online policy belongs to.

OPT computation and cost
------------------------
Next-use distances come from one vectorised numpy pass (stable argsort
over key ids; O(n log n) for an n-record stream).  The Belady replay
itself keeps, per (shard, set), a resident map plus a lazy max-heap of
``(-next_use, key)`` entries: stale heap entries are skipped when their
recorded next-use no longer matches the resident's.  Total cost is
O(n log n) time and O(n) memory — minutes of trace replay at campaign
scale, never per-cycle work.

1GB-page records mirror the structures' ``caches()`` predicate: they
count as accesses and misses for every policy (OPT included) and are
never installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.indexing import IndexFn, get_indexer
from repro.tlb.policies import POLICY_NAMES
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_1G
from repro.workloads.trace import interleave_streams

#: Name of the offline bound in evaluation results.
OPT = "opt"

#: One canonical-stream record: (core, asid, page_size, page_number).
Access = Tuple[int, int, int, int]


def canonical_stream(workload) -> List[Access]:
    """The workload's canonical offline order (see module docstring):
    each core's merged stream, tagged with its core, and the cores'
    tagged streams merged by the same round robin."""
    return interleave_streams([
        [
            (core, asid, size, page_number)
            for _, asid, size, page_number in interleave_streams(streams)
        ]
        for core, streams in enumerate(workload.traces)
    ])


@dataclass(frozen=True)
class StructureSpec:
    """L2 geometry extracted from a :class:`SystemConfig`."""

    num_shards: int
    entries_per_shard: int
    ways: int
    index_shift: int
    indexer: IndexFn
    #: Private scheme: the home shard is the requesting core, not a hash.
    private: bool

    @property
    def num_sets(self) -> int:
        return self.entries_per_shard // self.ways

    def home(self, core: int, asid: int, page_number: int) -> int:
        if self.private:
            return core
        return self.indexer(asid, page_number, self.num_shards)


def structure_for(config) -> StructureSpec:
    """The offline structure geometry of a configuration.

    Mirrors :class:`~repro.sim.system.System`'s L2 construction:
    private L2s become per-core shards, a monolithic structure becomes
    its banks, distributed/NOCSTAR/ideal become per-core slices —
    each with the sharded structures' ``log2(shards)`` index shift.
    """
    n = config.num_cores
    indexer = get_indexer(config.slice_indexing)
    if config.scheme == "private":
        return StructureSpec(
            num_shards=n,
            entries_per_shard=config.entries_per_core,
            ways=config.l2_ways,
            index_shift=0,
            indexer=indexer,
            private=True,
        )
    if config.scheme == "monolithic":
        banks = config.banks
        return StructureSpec(
            num_shards=banks,
            entries_per_shard=config.entries_per_core * n // banks,
            ways=config.l2_ways,
            index_shift=max(banks - 1, 0).bit_length(),
            indexer=indexer,
            private=False,
        )
    return StructureSpec(
        num_shards=n,
        entries_per_shard=config.entries_per_core,
        ways=config.l2_ways,
        index_shift=max(n - 1, 0).bit_length(),
        indexer=indexer,
        private=False,
    )


@dataclass(frozen=True)
class PolicyEval:
    """Replay outcome of one policy over one (workload, structure)."""

    policy: str
    hits: int
    accesses: int
    slice_hits: Tuple[int, ...]
    slice_accesses: Tuple[int, ...]

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _PreparedStream:
    """Canonical stream resolved against one structure geometry."""

    __slots__ = ("spec", "records", "next_use")

    def __init__(self, workload, spec: StructureSpec) -> None:
        self.spec = spec
        stream = canonical_stream(workload)
        num_sets = spec.num_sets
        shift = spec.index_shift
        #: (shard, slot, key, cacheable) per canonical position.
        records: List[Tuple[int, int, Tuple[int, int, int], bool]] = []
        ids = np.empty(len(stream), dtype=np.int64)
        # Next-use identity is (slot, key), not key alone: under the
        # private scheme one translation lives independently in several
        # per-core shards, and a reuse in another shard must not make
        # this shard's OPT retain the entry.
        id_of: Dict[Tuple[int, Tuple[int, int, int]], int] = {}
        for i, (core, asid, size, page_number) in enumerate(stream):
            key = (asid, size, page_number)
            shard = spec.home(core, asid, page_number)
            slot = shard * num_sets + (page_number >> shift) % num_sets
            records.append((shard, slot, key, size != PAGE_1G))
            ids[i] = id_of.setdefault((slot, key), len(id_of))
        self.records = records
        self.next_use = _next_use(ids)


def _next_use(ids: np.ndarray) -> np.ndarray:
    """Position of each key's next occurrence; ``n`` when never again."""
    n = len(ids)
    nxt = np.full(n, n, dtype=np.int64)
    if n > 1:
        order = np.argsort(ids, kind="stable")
        same = ids[order[:-1]] == ids[order[1:]]
        nxt[order[:-1][same]] = order[1:][same]
    return nxt


def _replay_online(prepared: _PreparedStream, policy: str) -> PolicyEval:
    """Replay through the production set-associative array code path."""
    spec = prepared.spec
    shards = [
        SetAssociativeTLB(
            spec.entries_per_shard, spec.ways, f"offline[{i}]",
            index_shift=spec.index_shift, policy=policy,
        )
        for i in range(spec.num_shards)
    ]
    hits = [0] * spec.num_shards
    accesses = [0] * spec.num_shards
    for shard, _slot, key, cacheable in prepared.records:
        accesses[shard] += 1
        if not cacheable:
            continue
        asid, size, page_number = key
        if shards[shard].lookup(asid, size, page_number):
            hits[shard] += 1
        else:
            shards[shard].insert(asid, size, page_number)
    return PolicyEval(
        policy=policy,
        hits=sum(hits),
        accesses=sum(accesses),
        slice_hits=tuple(hits),
        slice_accesses=tuple(accesses),
    )


def _replay_opt(prepared: _PreparedStream) -> PolicyEval:
    """Mandatory-install Belady replay (lazy max-heap eviction)."""
    spec = prepared.spec
    num_slots = spec.num_shards * spec.num_sets
    residents: List[Dict[Tuple[int, int, int], int]] = [
        {} for _ in range(num_slots)
    ]
    heaps: List[List[Tuple[int, Tuple[int, int, int]]]] = [
        [] for _ in range(num_slots)
    ]
    ways = spec.ways
    hits = [0] * spec.num_shards
    accesses = [0] * spec.num_shards
    next_use = prepared.next_use
    for i, (shard, slot, key, cacheable) in enumerate(prepared.records):
        accesses[shard] += 1
        if not cacheable:
            continue
        res = residents[slot]
        nxt = int(next_use[i])
        if key in res:
            hits[shard] += 1
        elif len(res) >= ways:
            heap = heaps[slot]
            while True:
                neg, victim = heappop(heap)
                if res.get(victim) == -neg:
                    del res[victim]
                    break
        res[key] = nxt
        heappush(heaps[slot], (-nxt, key))
    return PolicyEval(
        policy=OPT,
        hits=sum(hits),
        accesses=sum(accesses),
        slice_hits=tuple(hits),
        slice_accesses=tuple(accesses),
    )


def offline_policy_eval(
    workload,
    config,
    policies: Sequence[str] = POLICY_NAMES,
) -> Dict[str, PolicyEval]:
    """Replay ``workload`` offline under each policy plus OPT.

    Returns ``{policy_name: PolicyEval, ..., "opt": PolicyEval}``; every
    evaluation shares one canonical stream and one structure geometry,
    so OPT's per-slice hit rate upper-bounds each online policy's.
    """
    prepared = _PreparedStream(workload, structure_for(config))
    results = {
        policy: _replay_online(prepared, policy) for policy in policies
    }
    results[OPT] = _replay_opt(prepared)
    return results


def pct_of_opt(results: Dict[str, PolicyEval], policy: str) -> float:
    """Hit-rate of ``policy`` as a percentage of the OPT bound."""
    opt_rate = results[OPT].hit_rate
    if opt_rate == 0.0:
        return 100.0
    return 100.0 * results[policy].hit_rate / opt_rate
