"""Differential harness: the batched engine vs the reference engine.

The batched fast path (segment-compiled L1 hits + RouteCache tables)
claims bit-identity with the original drive loop — that claim is what
let ``ENGINE_VERSION`` stay unchanged.  This suite is the proof: every
corpus scenario (all interconnects, faults on/off, observability
on/off, storm/shootdown traffic) must produce byte-identical
``RunResult`` snapshots and trace exports under both engines, across
serial, parallel, and cache-replayed execution.

Engines agreeing with each other is not enough once they share one
transaction, so every corpus entry's ``sha256(canonical_json(result))``
is also pinned in ``corpus_pins.json``.  The pins were derived before
the L2 transaction became one table-driven closure, from the method
chain it replaced (all three engines agreed there); a pin that moves
means the simulated behaviour moved.
"""

import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import canonical_json
from repro.exec.runner import Runner
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import RouteCache
from repro.noc.topology import MeshTopology
from repro.obs import write_obs_jsonl
from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import REFERENCE_ENV
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload

from tests._corpus import (
    canonical_comparisons,
    differential_corpus,
    faulty_scenario,
)
from tests.noc.live_xy import LiveXY

CORPUS = differential_corpus()
PINS = json.loads((Path(__file__).parent / "corpus_pins.json").read_text())


def _digest(result) -> str:
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def _execute(scenario, monkeypatch, reference):
    if reference:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
    return scenario.units()[0].execute()


@pytest.mark.parametrize(
    "name,scenario", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_engines_byte_identical(name, scenario, monkeypatch, tmp_path):
    batched = _execute(scenario, monkeypatch, reference=False)
    reference = _execute(scenario, monkeypatch, reference=True)
    assert _digest(batched) == PINS[name]
    assert canonical_json(batched) == canonical_json(reference)
    if scenario.trace:
        # The exported artefact (runs + events) must match byte for
        # byte, not just the in-memory snapshot.
        paths = []
        for tag, result in (("batched", batched), ("reference", reference)):
            path = tmp_path / f"{tag}.jsonl"
            write_obs_jsonl(
                str(path),
                [(result.config_name, result.workload_name, result)],
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "name,scenario", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_retiring_every_cycle_keeps_the_bytes(name, scenario, monkeypatch):
    """With the retirement window at one cycle, each loop retires its
    reservation stores at nearly every pop, storms and shootdowns
    included: the bytes must stay pinned."""
    monkeypatch.setattr(engine, "RETIRE_WINDOW", 1)
    for reference in (False, True):
        result = _execute(scenario, monkeypatch, reference)
        assert _digest(result) == PINS[name]


@pytest.mark.parametrize(
    "name,scenario", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_a_run_leaves_no_reference_cycles(name, scenario):
    """Reference counting frees everything a run builds: the cyclic
    collector, paused during the run, finds nothing after it.  A bound
    method stored on the instance it binds (say, a faulty fabric's
    send) would leave a cycle behind."""
    unit = scenario.units()[0]
    gc.collect()
    unit.execute()
    assert gc.collect() == 0


def test_every_corpus_entry_is_pinned():
    assert sorted(PINS) == sorted(name for name, _ in CORPUS)


def test_fast_path_engages_and_reference_env_disables_it(monkeypatch):
    calls = []
    real = engine._drive_batched

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_drive_batched", spy)
    _, scenario = CORPUS[0]
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    scenario.units()[0].execute()
    assert calls, "batched fast path never engaged"

    calls.clear()
    monkeypatch.setenv(REFERENCE_ENV, "1")
    scenario.units()[0].execute()
    assert not calls, "REPRO_REFERENCE_ENGINE=1 must force the reference loop"


def test_storm_and_shootdown_runs_use_the_reference_loop(monkeypatch):
    # External L1 invalidations void the precompiled hit/miss sequence,
    # so these scenarios must take the reference loop even when the
    # fast path is otherwise enabled.
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.setattr(
        engine, "_drive_batched",
        lambda *a, **k: pytest.fail("batched path used under storms"),
    )
    by_name = dict(CORPUS)
    by_name["nocstar-storm"].units()[0].execute()
    by_name["distributed-shootdown"].units()[0].execute()


def test_runner_strategies_agree_across_engines(monkeypatch):
    scenario = faulty_scenario()
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    outputs = [
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario)),
        canonical_comparisons(Runner(jobs=4, cache_dir=None).run(scenario)),
    ]
    # Pool workers are forked, so they inherit the reference switch.
    monkeypatch.setenv(REFERENCE_ENV, "1")
    outputs.append(
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    )
    outputs.append(
        canonical_comparisons(Runner(jobs=4, cache_dir=None).run(scenario))
    )
    assert len(set(outputs)) == 1


def test_mega_scale_run_takes_the_batched_loop(monkeypatch):
    """At mega-mesh scale the one fast loop still drives the run, and
    its bytes equal the reference loop's."""
    cores = cfg.MEGA_CORE_COUNTS[0]
    workload = build_multithreaded(
        get_workload("gups"), cores, accesses_per_core=4, seed=1
    )
    config = cfg.distributed(cores)
    calls = []
    real = engine._drive_batched

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_drive_batched", spy)
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    batched = engine.simulate(config, workload)
    assert calls == [1], "a storm-free mega run must take _drive_batched"
    monkeypatch.setenv(REFERENCE_ENV, "1")
    reference = engine.simulate(config, workload)
    assert calls == [1]
    assert canonical_json(batched) == canonical_json(reference)


@settings(max_examples=60, deadline=None)
@given(
    num_tiles=st.integers(min_value=2, max_value=64),
    router_cycles=st.integers(min_value=1, max_value=3),
    wire_cycles=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_vectorized_hop_latency_matches_live_mesh(
    num_tiles, router_cycles, wire_cycles, data
):
    """The hop table behind ``System.mesh_hop_rows``, and the latency
    derived from it (hops x cycles per hop), equal the contention-free
    mesh model on live XY routes, route by route."""
    topology = MeshTopology(num_tiles)
    cache = RouteCache(topology)
    src = data.draw(st.integers(0, num_tiles - 1), label="src")
    dst = data.draw(st.integers(0, num_tiles - 1), label="dst")
    mesh = ContentionFreeMesh(
        topology, LiveXY(topology), router_cycles, wire_cycles
    )
    live = mesh.send(src, dst, now=0)
    assert cache.hops[src][dst] * mesh.cycles_per_hop == live.arrival
    assert int(cache.hops_array[src][dst]) == live.hops


def test_reference_cache_replays_into_batched_engine(monkeypatch, tmp_path):
    # ENGINE_VERSION deliberately did not change for the fast path, so
    # results cached by the reference engine replay as hits under the
    # batched engine — and they had better be the same bytes.
    scenario = faulty_scenario()
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv(REFERENCE_ENV, "1")
    cold = Runner(jobs=1, cache_dir=cache_dir)
    reference = cold.run(scenario)
    assert cold.stats == {"hits": 0, "misses": 4}

    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    warm = Runner(jobs=1, cache_dir=cache_dir)
    replayed = warm.run(scenario)
    assert warm.stats == {"hits": 4, "misses": 0}

    fresh = canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    assert (
        canonical_comparisons(reference)
        == canonical_comparisons(replayed)
        == fresh
    )
