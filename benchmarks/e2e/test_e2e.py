"""Self-tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import types

import pytest

import child
import layers
import run
from layers import COUNTED, LAYERS, MODEL_COUNTERS, Tracer, per_layer_names
from reference import HostSpeed


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans_sums_exactly_to_the_root():
    # root [0, 100) > a [10, 60) > b [20, 30); root > b [70, 90)
    tracer = Tracer(clock=fake_clock([0, 10, 20, 30, 60, 70, 90, 100]))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.self_ns == {"b": 30, "a": 40, "root": 30}
    assert tracer.calls == {"b": 2, "a": 1, "root": 1}
    assert tracer.root_ns == {"root": 100}
    assert tracer.identity_holds()


def test_recursive_spans_of_one_layer_are_not_double_counted():
    tracer = Tracer(clock=fake_clock([0, 5, 15, 20]))
    tracer.enter("x")
    tracer.enter("x")
    tracer.exit()
    tracer.exit()
    assert tracer.self_ns == {"x": 20}
    assert tracer.calls == {"x": 2}
    assert tracer.identity_holds()


def test_ticks_inside_a_piece_are_taken_out_and_set_its_unit(monkeypatch):
    # Ticks started at 0.5 (before the piece), 2.0 and 2.5 (inside it).
    speed = HostSpeed.__new__(HostSpeed)
    speed.starts, speed.ticks = [0.5, 2.0, 2.5], [0.3, 0.1, 0.3]
    clock = child.Clock(sampled=False)
    clock.speed = speed
    monkeypatch.setattr(child.time, "perf_counter", fake_clock([1.0, 3.4]))
    assert clock.timed("sim", lambda: "done") == "done"
    assert clock.seconds["sim"] == pytest.approx(2.0)  # 2.4 s less 0.4 s
    assert clock.refs["sim"] == pytest.approx(2.0 / 0.2)
    assert clock.seconds["setup"] == clock.refs["setup"] == 0.0


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.summarize(values) == {
        "median": 3.0, "q1": q1, "q3": q3, "n": 7,
    }
    assert run.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


@pytest.mark.parametrize(
    "base, head, better, bound, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "lower", 0.1,
         "improved"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "lower",
         0.1, "worse"),
        ([10, 10.1, 9.9, 10, 10.05], [10.2, 9.8, 10.1, 10, 9.9], "lower",
         0.1, "unchanged"),
        ([10, 14, 7, 12, 9], [10.5, 13, 8, 11, 9.5], "lower", 0.1,
         "unresolved"),
        ([100, 101, 99], [90, 91, 89], "higher", 0.05, "worse"),
        ([0.0, 0.0, 0.0], [0.0, 0.25, 0.25], "lower", 0.0, "worse"),
    ],
)
def test_verdicts(base, head, better, bound, expected):
    assert run.verdict(base, head, better, bound) == expected


def _fake_spawn(digests, modes=None):
    """A stand-in for a child process: canned output, no simulation."""

    def spawn(workload, seed, mode):
        if modes is not None:
            modes.append(mode)
        out = {"setup_s": 0.5, "setup_raw_s": 0.4, "ref_s": 0.1,
               "probe_s": 0.2, "wall_s": 0.7}
        if mode == "setup":
            return out
        out.update({
            "sim_s": 1.0, "sim_ref": 10.0, "l2_tx": 1000, "attempted": 1,
            "failed": [], "problems": [], "digests": dict(digests),
            "peak_rss_mb": 80.0, "wall_s": 1.6,
        })
        if mode == "traced":
            out.update(
                identity=True, traced_total_s=1.0, absent=[],
                layers={name: {"self_s": 0.1, "share": 0.1, "calls": 1}
                        for name in LAYERS},
                drive_calls={name: 1 for name in COUNTED},
                counters={name: 1 for name in MODEL_COUNTERS},
            )
        return out

    return spawn


@pytest.mark.parametrize("trace", [False, True])
def test_tampered_digest_fails_the_run(trace, capsys):
    pins = {"3": {"storm-64": {"distributed": "0" * 64}}}
    code = run.run_contract("storm-64", 3, 0, trace, pins,
                            spawn=_fake_spawn({"distributed": "f" * 64}))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_matching_digest_passes_and_reports_every_metric(capsys):
    pins = {"3": {"storm-64": {"distributed": "f" * 64}}}
    modes = []
    code = run.run_contract("storm-64", 3, 0, False, pins,
                            spawn=_fake_spawn({"distributed": "f" * 64}, modes))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    # A zero budget still runs the warm-up and one round.
    assert modes == ["setup", "sample", "setup"]
    assert set(result["metrics"]) == {m["name"] for m in run.declared_metrics()}
    assert result["metrics"]["l2_tx_per_ref"]["value"] == 100.0
    # The child's reference ticks are taken out of its wall-clock.
    assert result["metrics"]["wall_ref"]["value"] == pytest.approx(14.0)


def test_crashed_child_stops_the_run_and_fails_it(capsys):
    calls = []

    def spawn(workload, seed, mode):
        calls.append(mode)
        return {"crashed": "child exited with code 1", "wall_s": 1.0}

    code = run.run_contract("paper-64", 3, 60, False, {}, spawn=spawn)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert calls == ["setup"]  # the warm-up crashed; nothing more ran


def test_contract_run_stops_within_its_budget(monkeypatch, capsys):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    inner = _fake_spawn({"distributed": "f" * 64})

    def spawn(workload, seed, mode):
        now[0] += 1.0 if mode == "setup" else 4.0
        return inner(workload, seed, mode)

    pins = {"3": {"storm-64": {"distributed": "f" * 64}}}
    assert run.run_contract("storm-64", 3, 12, False, pins, spawn=spawn) == 0
    # Warm-up 1 s + two 5 s rounds; a third round would end at 16 s.
    assert now[0] == 11.0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 2


def _write_result(tmp_path, name, samples):
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"storm-64": {
        "samples": samples}}}))
    return str(path)


def test_compare_gives_raw_seconds_no_verdict(tmp_path, capsys):
    def samples(wall_s, sim_ref):
        return [{"wall_s": wall_s, "sim_ref": sim_ref + i * 0.01,
                 "error_rate": 0.0} for i in range(5)]

    base = _write_result(tmp_path, "base.json", samples(3.0, 25.0))
    slow_host = _write_result(tmp_path, "head.json", samples(6.0, 25.0))
    assert run.run_compare(base, slow_host) == 0
    rows = capsys.readouterr().out.splitlines()
    assert any("wall_s" in r and r.rstrip().endswith("(info)") for r in rows)
    assert any("sim_ref" in r and r.rstrip().endswith("unchanged")
               for r in rows)
    slower = _write_result(tmp_path, "slower.json", samples(3.0, 30.0))
    assert run.run_compare(base, slower) == 1


def test_unpinned_seed_says_the_digest_check_was_skipped():
    note = run.WorkloadRun("storm-64", 99, {}).digest_note
    assert "skipped for seed 99" in note


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "COUNTED",
                        {"fake.drive": "repro_e2e_fake:_drive_gone"})
    monkeypatch.setattr(layers, "LEAN_FACTORY", "repro_e2e_fake:lean_gone")
    module = types.ModuleType("repro_e2e_fake")

    class Net:
        def send(self, n):
            return n + 1

    def build(n):
        return Net().send(n)

    module.Net = Net
    module.build = build
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.install(
            layers={
                "fake.send": ("repro_e2e_fake:Net.send",
                              "repro_e2e_fake:Net._gone"),
                "fake.build": ("repro_e2e_fake:build",
                               "repro_no_such_module:build"),
            },
        )
        assert module.build(1) == 2
        assert tracer.absent() == [
            "repro_e2e_fake:Net._gone",
            "repro_e2e_fake:_drive_gone",
            "repro_e2e_fake:lean_gone",
            "repro_no_such_module:build",
        ]
        assert tracer.calls == {"fake.build": 1, "fake.send": 1}
        assert tracer.identity_holds()
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert module.build is build and "send" in vars(Net)
    assert vars(Net)["send"].__name__ == "send"


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_names_and_limits():
    doc = json.loads(run.BENCHMARK.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    workloads = [w["name"] for w in doc["workloads"]]
    e2e = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(per_layer) <= 128
    names = workloads + e2e + per_layer
    assert all(NAME.match(n) for n in names), names
    assert len(set(workloads)) == len(workloads)
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)
    assert tuple(workloads) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == (
        per_layer_names()
    )
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.10 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_real_sample_matches_its_pin_and_tracing_keeps_the_bytes():
    pins = run.load_json(run.PINS)
    untraced = run.spawn("storm-64", 3, "sample")
    traced = run.spawn("storm-64", 3, "traced")
    assert untraced["failed"] == [] and traced["failed"] == []
    assert untraced["digests"] == pins["3"]["storm-64"]
    assert traced["digests"] == untraced["digests"]
    assert traced["identity"] and traced["absent"] == []
    assert traced["layers"]["sim.engine.compile"]["calls"] == 0
    assert traced["drive_calls"]["sim.engine.drive_reference"] == 1
    shares = sum(v["share"] for k, v in traced["layers"].items()
                 if k != "workloads.build")
    assert shares == pytest.approx(1.0)
