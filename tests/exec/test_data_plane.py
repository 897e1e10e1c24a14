"""The sweep data plane: zero-copy fan-out proven bit-identical.

The acceptance contract of the trace-store path: the PR 4 differential
corpus — every interconnect, faults, observability, storms, shootdowns
— executed through shared-artifact fan-out with cost-aware scheduling
must match the serial ``jobs=1`` reference bit-for-bit, and result
cache keys must be unchanged (a cache written by the store-less serial
runner replays into the data plane as pure hits).
"""

import json

import pytest

from tests._corpus import differential_corpus

from repro.exec.cache import canonical_json
from repro.exec.runner import Runner, unit_cost
from repro.exec.trace_store import _clear_attachments
from repro.obs import write_obs_jsonl
from repro.sim import configs as cfg
from repro.sim.engine import StormConfig
from repro.sim.scenario import Scenario


@pytest.fixture(autouse=True)
def _fresh_attachments():
    _clear_attachments()
    yield
    _clear_attachments()


def _corpus_units():
    return [scenario.units()[0] for _, scenario in differential_corpus()]


def _labelled(units, results):
    return [
        (unit.config.name, unit.workload.name, result)
        for unit, result in zip(units, results)
    ]


def test_differential_corpus_through_fanout_is_bit_identical(tmp_path):
    units = _corpus_units()
    reference = Runner(jobs=1).execute_units(units)
    serial_store = Runner(
        jobs=1, trace_store=str(tmp_path / "store")
    ).execute_units(units)
    fanout = Runner(
        jobs=2, trace_store=str(tmp_path / "store")
    ).execute_units(units)
    assert canonical_json(serial_store) == canonical_json(reference)
    assert canonical_json(fanout) == canonical_json(reference)

    ref_path = tmp_path / "ref.jsonl"
    fan_path = tmp_path / "fan.jsonl"
    write_obs_jsonl(str(ref_path), _labelled(units, reference))
    write_obs_jsonl(str(fan_path), _labelled(units, fanout))
    assert ref_path.read_bytes() == fan_path.read_bytes()


def test_result_cache_keys_unchanged_by_data_plane(tmp_path):
    # A cache populated by the plain serial runner must replay into the
    # trace-store fan-out as pure hits: artifact attachment is not a
    # cache-key input.
    units = _corpus_units()
    cache_dir = str(tmp_path / "cache")
    seeded = Runner(jobs=1, cache_dir=cache_dir)
    reference = seeded.execute_units(units)
    assert seeded.stats == {"hits": 0, "misses": len(units)}

    warm = Runner(jobs=2, cache_dir=cache_dir, trace_store=str(tmp_path / "s"))
    replayed = warm.execute_units(units)
    assert warm.stats == {"hits": len(units), "misses": 0}
    assert warm.trace_stats["builds"] == 0  # hits never stage artifacts
    assert canonical_json(replayed) == canonical_json(reference)


def test_run_prebuilt_through_store_is_bit_identical(tmp_path):
    from repro.workloads.generators import build_multithreaded
    from repro.workloads.registry import get_workload

    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=300, seed=5
    )
    lineup = [cfg.private(4), cfg.nocstar(4)]
    reference = Runner(jobs=1).run_prebuilt(workload, lineup)
    store = Runner(jobs=2, trace_store=str(tmp_path / "s"))
    fanned = store.run_prebuilt(workload, lineup)
    assert store.trace_stats["builds"] == 1
    assert canonical_json(fanned.results) == canonical_json(reference.results)


def test_lineup_dedup_builds_once_and_reuses_across_runners(tmp_path):
    scenario = Scenario(
        configurations=(cfg.private(4), cfg.distributed(4), cfg.nocstar(4)),
        workloads=("gups", "olio"),
        accesses_per_core=200,
        seed=3,
    )
    cold = Runner(jobs=2, trace_store=str(tmp_path / "s"))
    cold.run(scenario)
    # 3 configs x 2 workloads = 6 units but only 2 distinct signatures.
    assert cold.trace_stats["builds"] == 2
    warm = Runner(jobs=2, trace_store=str(tmp_path / "s"))
    warm.run(scenario)
    assert warm.trace_stats["builds"] == 0


def test_cost_model_orders_the_obvious_cases():
    def unit(config, **overrides):
        scenario = Scenario(
            configurations=(config,),
            workloads="gups",
            accesses_per_core=400,
            baseline_name=config.name,
            **overrides,
        )
        return scenario.units()[0]

    assert unit_cost(unit(cfg.nocstar(8))) > unit_cost(unit(cfg.private(8)))
    assert unit_cost(unit(cfg.private(8))) > unit_cost(unit(cfg.ideal(8)))
    assert unit_cost(unit(cfg.private(16))) > unit_cost(unit(cfg.private(8)))
    assert unit_cost(
        unit(cfg.private(8), storm=StormConfig(period=4000))
    ) == pytest.approx(2.0 * unit_cost(unit(cfg.private(8))))


def test_telemetry_schema_3_splits_build_and_sim(tmp_path):
    cache_dir = tmp_path / "cache"
    scenario = Scenario(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="olio",
        accesses_per_core=300,
        seed=3,
    )
    store = str(tmp_path / "s")
    Runner(cache_dir=str(cache_dir), trace_store=store).run_one(scenario)
    Runner(cache_dir=str(cache_dir), trace_store=store).run_one(scenario)
    lines = [
        json.loads(line)
        for line in (cache_dir / "telemetry.jsonl").read_text().splitlines()
    ]
    assert all(record["schema"] == 3 for record in lines)

    summaries = [r for r in lines if r.get("record") == "trace_store"]
    unit_records = [r for r in lines if "cache" in r]
    # One summary from the cold run (which built the one artifact); the
    # warm run was all hits — nothing staged, no summary line.
    assert [r["builds"] for r in summaries] == [1]
    assert [r["cache"] for r in unit_records] == ["miss", "miss", "hit", "hit"]
    for record in unit_records:
        if record["cache"] == "miss":
            assert record["sim_s"] > 0.0
            assert record["build_s"] >= 0.0
            assert record["wall_s"] == pytest.approx(
                record["build_s"] + record["sim_s"], abs=1e-5
            )
        else:  # hits never build or simulate
            assert record["build_s"] == 0.0 and record["sim_s"] == 0.0
            assert record["wall_s"] >= 0.0

    # The report loader must classify unit records as runs and skip the
    # store summaries (they carry neither kind nor cycles/metrics).
    from repro.obs import load_obs_records

    runs, events = load_obs_records([str(cache_dir / "telemetry.jsonl")])
    assert len(runs) == len(unit_records) and not events
