"""Content-addressed result cache: canonicalisation, keys, storage."""

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.exec.cache import (
    ResultCache,
    canonical_json,
    canonicalize,
    unit_key,
    workload_fingerprint,
)
from repro.exec.runner import Runner
from repro.sim import configs as cfg
from repro.sim.engine import ENGINE_VERSION, StormConfig, simulate
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload
from repro.workloads.trace import Workload


def _unit(**overrides):
    base = dict(
        configurations=cfg.nocstar(4),
        workloads="olio",
        accesses_per_core=500,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base).units()[0]


def test_scenario_roundtrips_through_canonicaliser():
    unit = _unit()
    payload = canonical_json(unit)
    # stable JSON: parseable, and identical on re-serialisation
    assert json.loads(payload)["__dataclass__"] == "RunUnit"
    assert canonical_json(unit) == payload
    # an equal unit built from the spec object (not the registry name)
    # canonicalises identically
    twin = _unit(workloads=get_workload("olio"))
    assert canonical_json(twin) == payload
    # and a pickle round-trip changes nothing
    assert canonical_json(pickle.loads(pickle.dumps(unit))) == payload


def test_unit_key_is_content_addressed():
    assert unit_key(_unit(), ENGINE_VERSION) == unit_key(
        _unit(), ENGINE_VERSION
    )
    baseline = unit_key(_unit(), ENGINE_VERSION)
    assert unit_key(_unit(seed=8), ENGINE_VERSION) != baseline
    assert unit_key(_unit(accesses_per_core=501), ENGINE_VERSION) != baseline
    assert (
        unit_key(_unit(storm=StormConfig(period=100)), ENGINE_VERSION)
        != baseline
    )
    assert (
        unit_key(
            _unit(configurations=cfg.nocstar(4).renamed("x")), ENGINE_VERSION
        )
        != baseline
    )


def test_engine_version_participates_in_the_key():
    unit = _unit()
    assert unit_key(unit, "1") != unit_key(unit, "2")


def test_canonicalize_rejects_uncanonical_values():
    with pytest.raises(TypeError):
        canonicalize(lambda: None)
    with pytest.raises(TypeError):
        canonicalize(float("nan"))
    with pytest.raises(TypeError):
        canonicalize(object())


def test_cache_round_trips_run_results(tmp_path):
    unit = _unit(accesses_per_core=300)
    result = unit.execute()
    cache = ResultCache(tmp_path / "cache")
    key = unit_key(unit, ENGINE_VERSION)
    assert key not in cache
    cache.put(key, result)
    assert key in cache
    assert len(cache) == 1
    restored = cache.get(key)
    assert restored == result
    assert restored.stats == result.stats
    assert restored.per_core_cycles == result.per_core_cycles


def test_corrupt_entries_read_as_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    unit = _unit(accesses_per_core=200)
    key = unit_key(unit, ENGINE_VERSION)
    cache.put(key, unit.execute())
    with open(cache.path(key), "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.get(key) is None


#: Damage to a committed result pickle: a cut file, and a string the
#: unpickler cannot decode (``UnicodeDecodeError``).
RESULT_DAMAGE = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "invalid utf-8": lambda blob: blob.replace(b"nocstar", b"\xffocstar", 1),
}


@pytest.mark.parametrize("damage", list(RESULT_DAMAGE))
def test_damaged_result_reads_as_miss_and_is_recommitted(tmp_path, damage):
    unit = _unit(accesses_per_core=200)
    cache_dir = str(tmp_path / "cache")
    first = Runner(cache_dir=cache_dir).execute_units([unit])
    path = ResultCache(cache_dir).path(unit_key(unit, ENGINE_VERSION))
    with open(path, "rb") as fh:
        blob = fh.read()
    assert b"nocstar" in blob
    with open(path, "wb") as fh:
        fh.write(RESULT_DAMAGE[damage](blob))
    rerun = Runner(cache_dir=cache_dir)
    assert rerun.execute_units([unit]) == first
    assert rerun.stats == {"hits": 0, "misses": 1}
    warm = Runner(cache_dir=cache_dir)
    assert warm.execute_units([unit]) == first
    assert warm.stats == {"hits": 1, "misses": 0}


def test_failed_put_keeps_the_committed_entry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    key = "d" * 64
    cache.put(key, {"x": 1})
    with pytest.raises((AttributeError, pickle.PicklingError)):
        cache.put(key, {"x": lambda: None})  # a local lambda cannot pickle
    assert cache.get(key) == {"x": 1}
    assert os.listdir(os.path.dirname(cache.path(key))) == [key + ".pkl"]


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    result = _unit(accesses_per_core=200).execute()
    cache.put("aa" * 32, result)
    cache.put("bb" * 32, result)
    assert cache.clear() == 2
    assert len(cache) == 0


def test_stats_counts_entries_and_bytes(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    assert cache.stats() == {"entries": 0, "bytes": 0}
    cache.put("a" * 64, {"x": 1})
    cache.put("b" * 64, {"x": 2})
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0


def test_cache_evict_older_than(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put("a" * 64, {"x": 1})
    cache.put("b" * 64, {"x": 2})
    old = time.time() - 1000.0
    path = cache.path("a" * 64)
    os.utime(path, (old, old))
    assert cache.evict_older_than(500.0) == 1
    assert cache.get("a" * 64) is None
    assert cache.get("b" * 64) == {"x": 2}
    with pytest.raises(ValueError):
        cache.evict_older_than(-1.0)


def test_workload_fingerprint_tracks_content():
    wl_a = build_multithreaded(
        get_workload("olio"), 2, accesses_per_core=200, seed=1
    )
    wl_same = build_multithreaded(
        get_workload("olio"), 2, accesses_per_core=200, seed=1
    )
    wl_other_seed = build_multithreaded(
        get_workload("olio"), 2, accesses_per_core=200, seed=2
    )
    assert workload_fingerprint(wl_a) == workload_fingerprint(wl_same)
    assert workload_fingerprint(wl_a) != workload_fingerprint(wl_other_seed)


def test_workload_fingerprint_hashes_empty_streams():
    hollow = Workload(name="hollow", traces=[[[]]], seed=0, superpages=False)
    assert len(workload_fingerprint(hollow)) == 64


#: Processes racing on one key: more than a small machine has cores, so
#: commits interleave.
RACERS = 4


def _put_after(barrier, root, key):
    result = _unit(accesses_per_core=200).execute()
    barrier.wait(timeout=120)
    ResultCache(root).put(key, result)


def test_racing_puts_of_one_key_leave_one_entry(tmp_path):
    root = str(tmp_path / "cache")
    key = "c" * 64
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(RACERS)
    writers = [
        ctx.Process(target=_put_after, args=(barrier, root, key))
        for _ in range(RACERS)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(120)
    assert [writer.exitcode for writer in writers] == [0] * RACERS
    cache = ResultCache(root)
    assert list(cache.keys()) == [key]
    assert cache.get(key) == _unit(accesses_per_core=200).execute()
    assert os.listdir(os.path.dirname(cache.path(key))) == [key + ".pkl"]
