#!/usr/bin/env python3
"""Tour of the library's extensions beyond the paper's evaluation.

1. Slice indexing (§III-A hints at "optimized indexing mechanisms"):
   modulo vs XOR-fold under a strided attack pattern.
2. QoS way-partitioning (the paper's future work): protecting a mix's
   victim application from a thrashing neighbour.
3. The distributed TLB over every Table I fabric, in vivo.
4. ASID recycling pressure.

Run:  python examples/extensions_tour.py
"""

from dataclasses import replace

from repro.analysis.tables import render_table
from repro.sim import configs as cfg
from repro.api import Runner, simulate
from repro.vm import AsidManager
from repro.workloads import WORKLOADS, build_multiprogrammed
from repro.workloads.microbench import build_slice_hammer

CORES = 16


def indexing_demo() -> None:
    print("1) Slice indexing under a strided attack (slice hammer):")
    hammer = build_slice_hammer(CORES, accesses_per_core=2_000)
    base = simulate(cfg.private(CORES), hammer).cycles
    rows = []
    for indexing in ("modulo", "xor-fold"):
        config = replace(
            cfg.nocstar(CORES), slice_indexing=indexing, name=indexing
        )
        rows.append([indexing, base / simulate(config, hammer).cycles])
    print(render_table(["indexing", "speedup vs private"], rows))


def qos_demo() -> None:
    print("\n2) QoS way-partitioning on a hostile mix (gups aggressor):")
    mix = build_multiprogrammed(
        [WORKLOADS[n] for n in ("gups", "canneal", "olio", "nutch")],
        CORES, accesses_per_core=2_500, seed=3,
    )
    runner = Runner()
    rows = []
    for quota, label in ((None, "no QoS"), (2, "2-way quota")):
        config = replace(cfg.nocstar(CORES), qos_way_quota=quota, name=label)
        lineup = runner.run_prebuilt(mix, [cfg.private(CORES), config])
        result = lineup.results[label]
        apps = result.app_speedups_over(lineup.baseline)
        rows.append(
            [label, result.speedup_over(lineup.baseline), min(apps.values())]
        )
    print(render_table(["policy", "throughput", "worst app"], rows))


def fabric_demo() -> None:
    print("\n3) The distributed TLB over every Table I fabric (canneal):")
    from repro.workloads import build_multithreaded, get_workload

    wl = build_multithreaded(
        get_workload("canneal"), CORES, accesses_per_core=4_000, seed=7
    )
    base = simulate(cfg.private(CORES), wl).cycles
    rows = []
    for noc in ("mesh", "bus", "fbfly-wide", "fbfly-narrow"):
        rows.append(
            [noc, base / simulate(cfg.distributed(CORES, noc=noc), wl).cycles]
        )
    rows.append(["nocstar", base / simulate(cfg.nocstar(CORES), wl).cycles])
    print(render_table(["fabric", "speedup vs private"], rows))


def asid_demo() -> None:
    print("\n4) ASID recycling pressure (8 hardware tags, 20 processes):")
    manager = AsidManager(capacity=8)
    shootdowns = 0
    for round_robin in range(3):
        for pid in range(20):
            if manager.activate(pid).required_shootdown:
                shootdowns += 1
    print(f"   {manager.recycles} recycles -> {shootdowns} ASID shootdowns "
          "(each invalidates one context's entries chip-wide)")


def main() -> None:
    indexing_demo()
    qos_demo()
    fabric_demo()
    asid_demo()


if __name__ == "__main__":
    main()
