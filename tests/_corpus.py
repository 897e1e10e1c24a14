"""Shared scenario-corpus builders for determinism/differential suites.

Two suites exercise the same kind of byte-identity contract — the fault
determinism tests (serial vs parallel vs cache-replayed execution) and
the engine differential tests (batched fast path vs the
``REPRO_REFERENCE_ENGINE=1`` reference loop).  Both need small, cheap,
*diverse* scenarios; this module is their single source so coverage
decisions (which interconnects, which pathological traffic, which
observability combinations) live in one place.
"""

import json

from repro.core.config import ROUND_TRIP, NocstarConfig
from repro.faults.models import ArbiterDrop, FaultPlan, FaultSpec, LinkFailure
from repro.sim import configs as cfg
from repro.sim.engine import ShootdownTraffic, StormConfig
from repro.sim.scenario import Scenario


def faulty_scenario(**overrides):
    """The fault-determinism suite's canonical lineup scenario."""
    base = dict(
        configurations=(cfg.nocstar(8), cfg.distributed(8)),
        workloads=("gups", "olio"),
        accesses_per_core=400,
        seed=7,
        baseline_name="nocstar",
        metrics=True,
        trace=True,
        faults=FaultSpec(
            links=LinkFailure(rate=0.1),
            arbiter=ArbiterDrop(probability=0.05),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


def canonical_comparisons(comparisons):
    """Byte-stable rendering of every run's observable output."""
    blob = {}
    for workload, comparison in sorted(comparisons.items()):
        for config, result in sorted(comparison.results.items()):
            blob[f"{config}/{workload}"] = {
                "cycles": result.cycles,
                "faults": result.faults,
                "metrics": result.metrics,
                "trace": result.trace,
            }
    return json.dumps(blob, sort_keys=True)


def _single(name, config, workload, **overrides):
    base = dict(
        configurations=(config,),
        workloads=(workload,),
        accesses_per_core=400,
        seed=13,
        baseline_name=config.name,
    )
    base.update(overrides)
    return name, Scenario(**base)


def differential_corpus():
    """``(name, Scenario)`` pairs for batched-vs-reference comparison.

    Spans every interconnect model, faults on/off, metrics/trace on/off,
    the pathological-traffic workloads (context-switch storms and
    shootdown trains, which force the reference drive loop in both
    engines but still cross the route-cache dispatch), and the
    replacement-policy/arbitration axis (arc/twoq L2 slices and the
    priority arbiter must stay byte-identical across engines, job
    counts, and cache replay like everything else).
    """
    pinned_faults = FaultPlan(
        num_tiles=8, failed_links=((0, 1),)
    )
    return [
        _single("private-gups", cfg.private(8), "gups"),
        _single("monolithic-mesh", cfg.monolithic(8), "graph500"),
        _single(
            "monolithic-smart",
            cfg.build_config("monolithic-smart", 8),
            "graph500",
        ),
        _single("distributed-mesh", cfg.distributed(8), "canneal"),
        _single(
            "distributed-bus", cfg.build_config("distributed-bus", 8), "gups"
        ),
        _single(
            "distributed-fbfly-wide",
            cfg.build_config("distributed-fbfly-wide", 8),
            "olio",
        ),
        _single(
            "distributed-fbfly-narrow",
            cfg.build_config("distributed-fbfly-narrow", 8),
            "xsbench",
        ),
        _single("nocstar-one-way", cfg.nocstar(8), "graph500"),
        _single(
            "nocstar-round-trip",
            cfg.nocstar(8, config=NocstarConfig(acquire=ROUND_TRIP)),
            "gups",
        ),
        _single("nocstar-ideal", cfg.build_config("nocstar-ideal", 8), "olio"),
        # HPCmax 1 at 16 tiles: multi-cycle spans, so setups collide
        # mid-span and the retry search jumps (the 8-core HPCmax-16
        # entries only ever book single-cycle spans).
        _single(
            "nocstar-contended",
            cfg.nocstar(16, config=NocstarConfig(hpc_max=1)),
            "graph500",
            accesses_per_core=150,
            metrics=True,
        ),
        _single("ideal", cfg.ideal(8), "canneal"),
        _single(
            "nocstar-observed",
            cfg.nocstar(8),
            "graph500",
            metrics=True,
            trace=True,
        ),
        _single(
            "distributed-pinned-fault-observed",
            cfg.distributed(8),
            "gups",
            faults=pinned_faults,
            metrics=True,
        ),
        _single(
            "nocstar-fault-spec",
            cfg.nocstar(8),
            "olio",
            faults=FaultSpec(
                links=LinkFailure(rate=0.1),
                arbiter=ArbiterDrop(probability=0.05),
            ),
        ),
        _single(
            "nocstar-storm",
            cfg.nocstar(8),
            "gups",
            storm=StormConfig(period=4000),
            metrics=True,
            trace=True,
        ),
        _single(
            "distributed-shootdown",
            cfg.distributed(8),
            "olio",
            shootdown=ShootdownTraffic(period=3000, initiators=2),
        ),
        # Storms on private ARC L2s (fully built arrays whose flushes
        # must reach ghost-only sets), and invalidation bursts sent by
        # every core (naive leaders: one sweep per core per slice).
        _single(
            "private-arc-storm",
            cfg.private(8, policy="arc"),
            "canneal",
            storm=StormConfig(period=3000, burst_entries=64),
            metrics=True,
        ),
        _single(
            "distributed-naive-storm",
            cfg.distributed(8, leader_granularity=1),
            "gups",
            storm=StormConfig(period=2500, flush=False),
        ),
        _single(
            "distributed-arc", cfg.build_config("distributed-arc", 8), "gups"
        ),
        _single(
            "nocstar-twoq",
            cfg.build_config("nocstar-twoq", 8),
            "graph500",
            metrics=True,
            trace=True,
        ),
        _single(
            "nocstar-prio", cfg.build_config("nocstar-prio", 8), "olio"
        ),
        _single("private-twoq", cfg.private(8, policy="twoq"), "canneal"),
        _single(
            "monolithic-arc-shootdown",
            cfg.monolithic(8, policy="arc"),
            "xsbench",
            shootdown=ShootdownTraffic(period=3000, initiators=2),
        ),
        # The transaction's rarer branches: prefetch (private and shared
        # loops), remote walks with pollution, QoS way quotas, the
        # fixed-latency walker, a non-modulo home, no OoO overlap, and
        # recorded slice intervals.
        _single(
            "private-prefetch",
            cfg.private(8, prefetch_distances=(1,)),
            "gups",
        ),
        _single(
            "distributed-prefetch",
            cfg.distributed(8, prefetch_distances=(1,)),
            "graph500",
        ),
        _single(
            "nocstar-remote-ptw",
            cfg.nocstar(8, ptw_policy=cfg.PTW_REMOTE),
            "canneal",
        ),
        _single(
            "distributed-qos-quota",
            cfg.distributed(8, qos_way_quota=2),
            "olio",
        ),
        _single(
            "distributed-fixed-walker",
            cfg.distributed(8, ptw_fixed=20),
            "xsbench",
        ),
        _single(
            "distributed-xor-fold",
            cfg.distributed(8, slice_indexing="xor-fold"),
            "gups",
        ),
        _single(
            "nocstar-overlap-0",
            cfg.nocstar(8, translation_overlap=0.0),
            "olio",
        ),
        _single(
            "monolithic-smart-intervals",
            cfg.build_config("monolithic-smart", 8),
            "canneal",
            record_intervals=True,
        ),
    ]
