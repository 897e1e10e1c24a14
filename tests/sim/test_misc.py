"""Odds and ends: serialisation, trace helpers, package metadata."""

import json

import repro
from repro.sim import configs as cfg
from repro.sim.engine import StormConfig, simulate
from repro.vm.address import PAGE_4K
from repro.workloads.trace import Workload, flatten_streams


def tiny_workload():
    stream = [(2, 1, PAGE_4K, 100 + i) for i in range(60)]
    return Workload("tiny", [[stream], [list(stream)]], seed=0,
                    superpages=False)


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_run_result_round_trips_through_json():
    result = simulate(cfg.nocstar(2), tiny_workload())
    payload = json.dumps(result.as_dict())
    decoded = json.loads(payload)
    assert decoded["config"] == "nocstar"
    assert decoded["cycles"] == result.cycles
    assert decoded["stats"]["walks"] == result.stats.walks


def test_flatten_streams():
    wl = tiny_workload()
    streams = flatten_streams(wl)
    assert len(streams) == 2
    assert all(len(s) == 60 for s in streams)


def test_workload_properties():
    wl = tiny_workload()
    assert wl.num_cores == 2
    assert wl.smt == 1
    assert wl.total_accesses == 120


def test_storm_without_flush_only_invalidates():
    wl = tiny_workload()
    storm = StormConfig(period=100, burst_entries=8, flush=False)
    result = simulate(cfg.nocstar(2), wl, storm=storm)
    assert result.stats.flushes == 0
    assert result.stats.shootdown_messages > 0
