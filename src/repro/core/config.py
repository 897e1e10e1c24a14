"""Configuration of the NOCSTAR interconnect (§III-B)."""

from __future__ import annotations

from dataclasses import dataclass

#: Link-acquisition modes (§V, Fig 16 left).
ONE_WAY = "one-way"  # 2x one-way: request and response arbitrate separately
ROUND_TRIP = "round-trip"  # 1x two-way: links held for the whole remote access


@dataclass(frozen=True)
class NocstarConfig:
    """Design-time parameters of the TLB interconnect.

    ``hpc_max`` is the maximum hops traversable in one clock before
    pipeline latches must be inserted (§III-B3) — the full chip fits in
    one cycle when ``hpc_max >= mesh diameter``.  ``acquire`` selects
    how links are reserved; the paper finds 2x one-way wins (Fig 16).
    ``priority_rotation_cycles`` is the round-robin period of the link
    arbiters' static priority (§III-B2, anti-starvation).  Nothing in
    the simulator reads it: the reservation model grants a setup the
    first cycle all its links are free, with no rotating priority, and
    :mod:`repro.noc.synthetic` takes its own ``rotation_cycles``.  It
    stays because every NOCSTAR unit's cache key holds it.
    """

    hpc_max: int = 16
    acquire: str = ONE_WAY
    priority_rotation_cycles: int = 1000
    #: NOCSTAR slice size after shaving SRAM to pay for the interconnect
    #: (area-normalised 920 vs 1024 entries, §IV Table II).
    slice_entries: int = 920

    def __post_init__(self) -> None:
        if self.hpc_max < 1:
            raise ValueError("hpc_max must be >= 1")
        if self.acquire not in (ONE_WAY, ROUND_TRIP):
            raise ValueError(f"unknown acquire mode: {self.acquire}")
        if self.priority_rotation_cycles < 1:
            raise ValueError("priority rotation period must be >= 1")
