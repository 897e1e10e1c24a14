"""Pathological microbenchmarks (§V).

1. **TLB storm** — pairs a normal workload with aggressive context
   switching and superpage promotion/demotion churn: full TLB flushes
   plus 512-entry invalidation bursts.  The trace side is the normal
   workload; the churn side is injected by the engine via
   :class:`repro.sim.engine.StormConfig`.  :func:`storm_config_for`
   derives the paper's 0.5ms-equivalent period scaled to trace length.

2. **Slice hammer** — N-1 threads continuously access translations all
   homed on the slice of the Nth core, creating worst-case congestion
   on one slice (and its links).
"""

from __future__ import annotations

from typing import List

from repro.sim.engine import StormConfig
from repro.vm.address import PAGE_4K
from repro.workloads.generators import seeded_rng
from repro.workloads.trace import Record, Workload

#: The paper context-switches every 0.5 ms at 2 GHz = 1M cycles; our
#: traces are shorter, so the storm period is expressed as a fraction
#: of the expected run length instead.
STORM_EVENTS_PER_RUN = 12


def storm_config_for(
    accesses_per_core: int, mean_gap: float = 2.0, asid: int = 1
) -> StormConfig:
    """A storm schedule that fires ~STORM_EVENTS_PER_RUN times per run."""
    expected_cycles = int(accesses_per_core * (mean_gap + 1) * 1.6)
    period = max(1, expected_cycles // STORM_EVENTS_PER_RUN)
    return StormConfig(period=period, burst_entries=512, flush=True, asid=asid)


def build_slice_hammer(
    num_cores: int,
    accesses_per_core: int = 8_000,
    victim_slice: int = None,
    pages: int = 4096,
    mean_gap: float = 12.0,
    seed: int = 1,
) -> Workload:
    """N-1 cores hammer translations homed on one victim slice.

    Page numbers are congruent to ``victim_slice`` modulo the core
    count, so with the low-order-bits home function every access from
    every core lands on the same slice.  The victim core runs the same
    pattern (it at least enjoys local-slice accesses under NOCSTAR).
    """
    if victim_slice is None:
        victim_slice = num_cores - 1
    if not 0 <= victim_slice < num_cores:
        raise ValueError("victim slice out of range")
    rng = seeded_rng(seed)
    base = 1 << 20
    traces: List[List[List[Record]]] = []
    for core in range(num_cores):
        ks = rng.integers(0, pages, size=accesses_per_core)
        numbers = base + victim_slice + ks * num_cores
        gaps = 1 + rng.poisson(mean_gap - 1.0, size=accesses_per_core)
        stream = list(
            zip(
                gaps.tolist(),
                [1] * accesses_per_core,
                [PAGE_4K] * accesses_per_core,
                numbers.tolist(),
            )
        )
        traces.append([stream])
    return Workload(
        name=f"slice-hammer[{victim_slice}]",
        traces=traces,
        seed=seed,
        superpages=False,
        info={"victim_slice": victim_slice},
    )
