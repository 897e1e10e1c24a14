"""TraceStore: content addressing, build-once, attach identity, eviction."""

import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exec.cache import canonical_json, unit_key, workload_fingerprint
from repro.exec.runner import Runner
from repro.exec.trace_store import (
    TraceStore,
    _clear_attachments,
    attach_workload,
)
from repro.sim import configs as cfg
from repro.sim.engine import ENGINE_VERSION
from repro.sim.scenario import Scenario
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _fresh_attachments():
    _clear_attachments()
    yield
    _clear_attachments()


def _scenario(**overrides):
    base = dict(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="gups",
        accesses_per_core=200,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def _signature(**overrides):
    return _scenario(**overrides).units()[0].build_signature()


def test_lineup_shares_one_signature():
    units = _scenario().units()
    assert len({unit.build_signature() for unit in units}) == 1


def test_key_is_stable_and_sensitive(tmp_path):
    store = TraceStore(str(tmp_path))
    key = store.key_for(_signature())
    assert key == store.key_for(_signature())
    assert len(key) == 64
    assert key != store.key_for(_signature(seed=4))
    assert key != store.key_for(_signature(accesses_per_core=201))
    assert key != store.key_for(_signature(workloads="olio"))
    assert key != store.key_for(_signature(smt=2))
    assert key != store.key_for(_signature(superpages=False))


def test_generator_version_bump_changes_every_key(tmp_path, monkeypatch):
    from repro.workloads import generators

    store = TraceStore(str(tmp_path))
    before = store.key_for(_signature())
    monkeypatch.setattr(generators, "GENERATOR_VERSION", 999)
    assert store.key_for(_signature()) != before


def test_ensure_builds_exactly_once(tmp_path):
    store = TraceStore(str(tmp_path))
    signature = _signature()
    path, built = store.ensure(signature)
    assert built and os.path.exists(path)
    mtime = os.path.getmtime(path)
    again, rebuilt = store.ensure(signature)
    assert again == path and not rebuilt
    assert os.path.getmtime(path) == mtime


def test_attached_workload_matches_in_process_build(tmp_path):
    store = TraceStore(str(tmp_path))
    unit = _scenario().units()[0]
    path, _ = store.ensure(unit.build_signature())
    attached = attach_workload(path)
    built = unit.build_workload()
    assert attached.traces == built.traces
    assert workload_fingerprint(attached) == workload_fingerprint(built)


def test_attach_returns_the_same_object_per_path(tmp_path):
    # Object identity is what keeps the engine's per-workload compiled
    # cache warm across a lineup's units within one worker process.
    store = TraceStore(str(tmp_path))
    path, _ = store.ensure(_signature())
    assert attach_workload(path) is attach_workload(path)


def test_missing_sidecar_reads_as_miss_and_rebuilds(tmp_path):
    store = TraceStore(str(tmp_path))
    signature = _signature()
    path, _ = store.ensure(signature)
    os.unlink(os.path.splitext(path)[0] + ".json")  # torn write
    assert store.key_for(signature) not in store
    again, rebuilt = store.ensure(signature)
    assert rebuilt and again == path
    assert attach_workload(path).traces  # readable after the rebuild


def _cut(path, size):
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _set_version(sidecar, version):
    meta = json.loads(sidecar.read_text())
    meta["version"] = version
    sidecar.write_text(json.dumps(meta))


#: Damage to a committed artifact ``(npy, sidecar)`` that must read as a
#: miss: every kind makes an attach fail.
DAMAGE = {
    "npy emptied": lambda npy, sidecar: _cut(npy, 0),
    "npy cut inside its header": lambda npy, sidecar: _cut(npy, 100),
    "npy cut short of its data": lambda npy, sidecar: _cut(
        npy, npy.stat().st_size - 64
    ),
    "corrupt sidecar": lambda npy, sidecar: sidecar.write_text("{not json"),
    "sidecar version 99": lambda npy, sidecar: _set_version(sidecar, 99),
    "rows disagree with the sidecar": lambda npy, sidecar: np.save(
        npy, np.load(npy)[:-1]
    ),
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_artifact_reads_as_miss_and_rebuilds(tmp_path, damage):
    scenario = _scenario()
    units = scenario.units()
    store = TraceStore(str(tmp_path / "store"))
    path, _ = store.ensure(units[0].build_signature())
    npy = Path(path)
    DAMAGE[damage](npy, npy.with_suffix(".json"))
    again, built = store.ensure(units[0].build_signature())
    assert built and again == path
    assert attach_workload(path).traces == units[0].build_workload().traces

    reference = canonical_json(Runner(jobs=1).execute_units(units))
    for jobs in (1, 2):
        DAMAGE[damage](npy, npy.with_suffix(".json"))
        _clear_attachments()
        runner = Runner(jobs=jobs, trace_store=store)
        assert canonical_json(runner.execute_units(units)) == reference
        assert runner.trace_stats["builds"] == 1


#: Processes racing on one key: more than a small machine has cores, so
#: commits interleave.
RACERS = 4


def _ensure_after(barrier, root, signature):
    barrier.wait(timeout=120)
    TraceStore(root).ensure(signature)


def test_racing_ensures_of_one_signature_leave_one_artifact(tmp_path):
    root = str(tmp_path / "store")
    signature = _signature()
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(RACERS)
    builders = [
        ctx.Process(target=_ensure_after, args=(barrier, root, signature))
        for _ in range(RACERS)
    ]
    for builder in builders:
        builder.start()
    for builder in builders:
        builder.join(120)
    assert [builder.exitcode for builder in builders] == [0] * RACERS
    store = TraceStore(root)
    key = store.key_for(signature)
    assert list(store.keys()) == [key]
    built = _scenario().units()[0].build_workload()
    assert attach_workload(store.path(key)).traces == built.traces
    assert sorted(os.listdir(os.path.dirname(store.path(key)))) == [
        key + ".json", key + ".npy"
    ]


#: Content addresses of ``_scenario()``: a trace store or result cache
#: written by an earlier version must keep hitting.
SIGNATURE_KEY = (
    "9c8a1032e2051fd2defa942157e9f95227b742e84ea6b43ac8105dbb941a14fc"
)
UNIT_KEYS = {
    "private":
        "29c3a03c9c3a076ce24f9f7e72a3dfe22fe9a771cf268d18fca2036574ddd6b2",
    "nocstar":
        "baaa51d70091ccef051ed49a4f539cce855ceb8a4b4e01a4451dcf8be09fbcf6",
}


def test_keys_are_pinned(tmp_path):
    assert ENGINE_VERSION == "1"
    assert TraceStore(str(tmp_path)).key_for(_signature()) == SIGNATURE_KEY
    units = _scenario().units()
    assert {
        unit.config.name: unit_key(unit, ENGINE_VERSION) for unit in units
    } == UNIT_KEYS


def test_stats_and_clear(tmp_path):
    store = TraceStore(str(tmp_path))
    assert store.stats() == {"artifacts": 0, "bytes": 0}
    store.ensure(_signature())
    store.ensure(_signature(seed=9))
    stats = store.stats()
    assert stats["artifacts"] == len(store) == 2
    assert stats["bytes"] > 0
    assert store.clear() == 2
    assert store.stats() == {"artifacts": 0, "bytes": 0}


def test_evict_drops_oldest_first(tmp_path):
    store = TraceStore(str(tmp_path))
    old_path, _ = store.ensure(_signature(seed=1))
    new_path, _ = store.ensure(_signature(seed=2))
    past = time.time() - 3600
    os.utime(old_path, (past, past))
    keep = store._entry_bytes(store.key_for(_signature(seed=2)))
    assert store.evict(max_bytes=keep) == 1
    assert not os.path.exists(old_path)
    assert os.path.exists(new_path)
    assert store.evict(max_bytes=keep) == 0  # already within budget


def test_prebuilt_artifacts_are_stored_once(tmp_path):
    from repro.workloads.generators import build_multithreaded

    store = TraceStore(str(tmp_path))
    workload = build_multithreaded(
        get_workload("gups"), 4, accesses_per_core=150, seed=7
    )
    fingerprint = workload_fingerprint(workload)
    path, built = store.ensure_prebuilt(fingerprint, workload)
    assert built
    again, rebuilt = store.ensure_prebuilt(fingerprint, workload)
    assert again == path and not rebuilt
    assert attach_workload(path).traces == workload.traces
