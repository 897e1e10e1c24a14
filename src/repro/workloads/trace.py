"""Trace containers.

A trace record is the tuple ``(gap, asid, page_size, page_number)``:

* ``gap`` — compute cycles since the previous memory reference;
* ``asid`` — the context tag of the translation (0 = globally shared);
* ``page_size`` — backing page size of the reference (4K/2M/1G);
* ``page_number`` — the page number at that granularity (the TLB tag).

Classification to (size, tag) happens at generation time — the address
-space layout is static during a run — which keeps the simulator's
per-access fast path to a couple of dict operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

Record = Tuple[int, int, int, int]  # (gap, asid, page_size, page_number)


@dataclass
class Workload:
    """A complete multi-core input: one trace per core (or SMT stream)."""

    name: str
    #: traces[core][stream] -> list of records (stream 0 unless SMT > 1).
    traces: List[List[List[Record]]]
    seed: int
    superpages: bool
    #: Extra detail for reporting (app -> cores, footprints, ...).
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    @property
    def smt(self) -> int:
        return len(self.traces[0]) if self.traces else 1

    @property
    def total_accesses(self) -> int:
        return sum(
            len(stream) for core in self.traces for stream in core
        )

    def core_streams(self, core: int) -> List[List[Record]]:
        return self.traces[core]


def interleave_streams(streams: Sequence[List[Record]]) -> List[Record]:
    """One core's SMT streams merged round-robin, one record per stream
    per turn, skipping streams that have run dry.

    Both engine drive loops issue a core's records in this order: the
    reference loop reads them by index and the batched loop's pre-pass
    compiles them.  It depends only on stream lengths, never on timing,
    so it can be materialised up front.  A single stream is returned as
    is.
    """
    if len(streams) == 1:
        return streams[0]
    merged: List[Record] = []
    positions = [0] * len(streams)
    n = len(streams)
    rr = 0
    remaining = sum(len(s) for s in streams)
    append = merged.append
    while remaining:
        s = rr % n
        rr += 1
        pos = positions[s]
        if pos < len(streams[s]):
            positions[s] = pos + 1
            append(streams[s][pos])
            remaining -= 1
    return merged


def flatten_streams(workload: Workload) -> List[List[Record]]:
    """All streams of all cores, in core-major order (analysis helper)."""
    return [stream for core in workload.traces for stream in core]
