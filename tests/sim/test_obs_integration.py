"""End-to-end observability: instrumentation wired through the engine.

The overhead contract (ISSUE satellite): a metrics-disabled run must be
*identical* to the seed path — same RunResult fields, ``metrics`` and
``trace`` None — and an observed run must not perturb timing.
"""

from dataclasses import replace

import pytest

from repro.exec.cache import canonical_json
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import shared_route_cache
from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import (
    REFERENCE_ENV,
    ShootdownTraffic,
    StormConfig,
    simulate,
)
from repro.sim.scenario import Scenario
from repro.vm.walker import PageTableWalker
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


def _workload(cores=4, accesses=600, seed=3, name="gups"):
    return build_multithreaded(
        get_workload(name), cores, accesses_per_core=accesses, seed=seed
    )


def test_disabled_run_carries_no_observability():
    result = simulate(cfg.nocstar(4), _workload())
    assert result.metrics is None
    assert result.trace is None


def test_observation_does_not_change_the_simulation():
    workload = _workload()
    for config in (cfg.nocstar(4), cfg.private(4), cfg.monolithic(4)):
        plain = simulate(config, workload)
        observed = simulate(config, workload, metrics=True, trace=True)
        assert observed.cycles == plain.cycles
        assert observed.per_core_cycles == plain.per_core_cycles
        assert observed.stats.as_dict() == plain.stats.as_dict()
        assert observed.energy == plain.energy
        assert observed.network == plain.network


def test_snapshot_agrees_with_run_stats():
    result = simulate(cfg.nocstar(4), _workload(), metrics=True, trace=True)
    snap = result.metrics
    counters, gauges = snap["counters"], snap["gauges"]
    histograms = snap["histograms"]
    # One translation-stall observation per L1 miss.
    assert (
        histograms["translation.stall_cycles"]["count"]
        == result.stats.l1_misses
    )
    # Per-slice hit/miss gauges sum to the run totals.
    slice_hits = sum(
        value for name, value in gauges.items()
        if name.startswith("tlb.slice.") and name.endswith(".hits")
    )
    slice_misses = sum(
        value for name, value in gauges.items()
        if name.startswith("tlb.slice.") and name.endswith(".misses")
    )
    assert slice_hits == result.stats.l2_hits
    assert slice_misses == result.stats.l2_misses
    assert counters["tlb.l1.misses"] == result.stats.l1_misses
    # Walk histogram: one observation per walk (incl. prefetch walks).
    assert (
        histograms["walk.latency"]["count"]
        == result.stats.walks + result.stats.prefetches
    )
    assert gauges["run.cycles"] == result.cycles
    # NOCSTAR setup counters surfaced under the noc.* namespace.
    assert counters["noc.messages"] == result.network["messages"]
    # Per-link utilization gauges exist and stay in [0, 1].
    utils = [v for k, v in gauges.items() if k.endswith(".util")]
    assert utils and all(0.0 <= u <= 1.0 for u in utils)
    assert gauges["trace.emitted"] == len(result.trace)
    assert gauges["trace.dropped"] == 0


def test_trace_has_expected_event_kinds():
    result = simulate(cfg.nocstar(4), _workload(), metrics=True, trace=True)
    kinds = {event["kind"] for event in result.trace}
    assert {"l1_lookup", "l2_lookup", "nocstar_setup",
            "walk_begin", "walk_end"} <= kinds
    smart = simulate(
        cfg.monolithic(4, noc=cfg.SMART),
        _workload(),
        metrics=True,
        trace=True,
    )
    assert "smart_setup" in {event["kind"] for event in smart.trace}


def test_storm_and_shootdown_events_traced():
    result = simulate(
        cfg.nocstar(4),
        _workload(),
        storm=StormConfig(period=4_000, burst_entries=32),
        shootdown=ShootdownTraffic(period=3_000),
        metrics=True,
        trace=True,
    )
    kinds = {event["kind"] for event in result.trace}
    assert "storm_flush" in kinds
    assert "shootdown" in kinds


def test_observed_storm_run_matches_the_unobserved_one():
    """Storms and shootdowns take the reference loop, which calls the
    sink only when it is enabled: an observed run records one stall
    sample and one ``l1_lookup`` event per L1 miss, and its result
    otherwise equals the unobserved run's."""
    workload = _workload()
    traffic = dict(
        storm=StormConfig(period=4_000, burst_entries=32),
        shootdown=ShootdownTraffic(period=3_000),
    )
    plain = simulate(cfg.distributed(4), workload, **traffic)
    observed = simulate(
        cfg.distributed(4), workload, metrics=True, trace=True, **traffic
    )
    assert observed.metrics["gauges"]["trace.dropped"] == 0
    misses = observed.stats.l1_misses
    stalls = observed.metrics["histograms"]["translation.stall_cycles"]
    assert stalls["count"] == misses
    assert sum(e["kind"] == "l1_lookup" for e in observed.trace) == misses
    assert canonical_json(
        replace(observed, metrics=None, trace=None)
    ) == canonical_json(plain)


def test_scenario_flags_flow_to_results():
    scenario = Scenario(
        configurations=cfg.nocstar(4),
        workloads="gups",
        accesses_per_core=400,
        seed=3,
        baseline_name="nocstar",
        metrics=True,
        trace=True,
    )
    result = simulate(scenario)
    assert result.metrics is not None
    assert result.trace
    d = result.as_dict()
    assert d["metrics"] == result.metrics
    assert d["trace"] == result.trace


def test_simulate_scenario_accepts_obs_overrides():
    scenario = Scenario(
        configurations=cfg.nocstar(4),
        workloads="gups",
        accesses_per_core=400,
        seed=3,
        baseline_name="nocstar",
    )
    result = simulate(scenario, metrics=True)
    assert result.metrics is not None
    assert result.trace is None


def test_observation_changes_only_the_mesh_send(monkeypatch):
    """Observing a mega-mesh run keeps its drive loop and walker: plain
    and observed runs take the same loop and the same latency-only walk
    (never ``walk()``), and their results differ only in ``metrics``
    and ``trace``.  The one path that differs is the mesh leg: a plain
    run times every leg from the route cache's hop rows and sends
    nothing, an observed run sends every message through the mesh's one
    ``send``, on the same routes, for link accounting."""
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    loops, walks, sends = [], [], []
    for name in ("_drive_batched", "_drive_reference"):
        def spy(*args, _name=name, _real=getattr(engine, name), **kwargs):
            loops.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    walk_cycles = PageTableWalker.walk_cycles

    def spy_walk_cycles(self, *args, **kwargs):
        walks.append(self.sink.enabled)
        return walk_cycles(self, *args, **kwargs)

    monkeypatch.setattr(PageTableWalker, "walk_cycles", spy_walk_cycles)
    monkeypatch.setattr(
        PageTableWalker, "walk",
        lambda *args, **kwargs: pytest.fail("walk() on a requester path"),
    )
    def spy_send(self, *args, _real=ContentionFreeMesh.send):
        sends.append(self.router)
        return _real(self, *args)

    monkeypatch.setattr(ContentionFreeMesh, "send", spy_send)
    cores = cfg.MEGA_CORE_COUNTS[0]
    config = cfg.distributed(cores)
    workload = _workload(cores, accesses=4, seed=1)
    plain = simulate(config, workload)
    assert sends == []
    observed = simulate(config, workload, metrics=True, trace=True)
    assert loops == ["_drive_batched", "_drive_batched"]
    assert walks == [False] * plain.stats.walks + [True] * observed.stats.walks
    routes = shared_route_cache(cores)
    assert sends == [routes] * observed.network["messages"]
    assert observed.metrics["counters"]["walk.count"] == observed.stats.walks
    assert observed.trace

    def unobserved(result):
        return canonical_json(replace(result, metrics=None, trace=None))

    assert unobserved(observed) == unobserved(plain)
