"""The benchmark trend gate: green on flat metrics, red past +15%."""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                 "tools"),
)

from check_bench_regression import (  # noqa: E402
    DEFAULT_FILES,
    DEFAULT_THRESHOLD,
    check_file,
    extract_metric,
    load_baseline,
    main,
)


def _write(directory, basename, payload):
    path = directory / basename
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def corpus(tmp_path):
    """Matched baseline/fresh artefacts for the engine, sweep and faults
    guards."""
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    payloads = {
        "BENCH_engine.json": {"batched_seconds": 1.0, "min_speedup": 1.8},
        "BENCH_sweep.json": {"after_seconds": 2.0},
        "BENCH_faults.json": {
            "points": [{"rate": 0.0, "cycles": 50000},
                       {"rate": 0.1, "cycles": 60000}]
        },
    }
    for basename, payload in payloads.items():
        _write(baseline, basename, payload)
        _write(fresh, basename, payload)
    return baseline, fresh


def _run(fresh, baseline, extra=()):
    files = sorted(str(p) for p in fresh.iterdir())
    return main([*files, "--baseline-dir", str(baseline), *extra])


# ----------------------------------------------------------------------
# metric extraction

def test_extract_metric_per_file():
    assert extract_metric("BENCH_engine.json", {"batched_seconds": 1.5}) \
        == ("batched_seconds", 1.5)
    assert extract_metric(
        "BENCH_faults.json",
        {"points": [{"rate": 0.1, "cycles": 9}, {"rate": 0.0, "cycles": 7}]},
    ) == ("cycles@rate=0", 7.0)
    with pytest.raises(KeyError):
        extract_metric("BENCH_engine.json", {"speedup": 2.0})
    with pytest.raises(KeyError, match="no rate-0"):
        extract_metric("BENCH_faults.json", {"points": [{"rate": 0.5}]})
    with pytest.raises(KeyError, match="no metric rule"):
        extract_metric("BENCH_unknown.json", {})


# ----------------------------------------------------------------------
# the gate

def test_gate_green_on_identical_metrics(corpus, capsys):
    baseline, fresh = corpus
    assert _run(fresh, baseline) == 0
    assert "OK: all metrics within +15%" in capsys.readouterr().out


def test_gate_green_within_threshold(corpus):
    baseline, fresh = corpus
    _write(fresh, "BENCH_sweep.json", {"after_seconds": 2.2})  # +10%
    assert _run(fresh, baseline) == 0


def test_gate_red_on_regression(corpus, capsys):
    baseline, fresh = corpus
    _write(fresh, "BENCH_sweep.json", {"after_seconds": 4.0})  # 2x slower
    assert _run(fresh, baseline) == 1
    captured = capsys.readouterr()
    assert "+100.0%" in captured.out and "REGRESSION" in captured.out
    assert "FAIL" in captured.err


def test_gate_red_on_fault_cycle_growth(corpus):
    baseline, fresh = corpus
    _write(fresh, "BENCH_faults.json",
           {"points": [{"rate": 0.0, "cycles": 60000}]})  # +20%
    assert _run(fresh, baseline) == 1


def test_gate_threshold_flag(corpus):
    baseline, fresh = corpus
    _write(fresh, "BENCH_sweep.json", {"after_seconds": 2.2})  # +10%
    assert _run(fresh, baseline, extra=("--threshold", "0.05")) == 1
    assert _run(fresh, baseline, extra=("--threshold", "0.25")) == 0


def test_missing_baseline_passes_with_warning(corpus, capsys):
    baseline, fresh = corpus
    os.unlink(str(baseline / "BENCH_sweep.json"))
    assert _run(fresh, baseline) == 0
    captured = capsys.readouterr()
    assert "no-baseline" in captured.out
    assert "a trend needs two points" in captured.err


def test_malformed_fresh_fails_loudly(corpus, capsys):
    baseline, fresh = corpus
    _write(fresh, "BENCH_engine.json", {"wrong_key": 1})
    assert _run(fresh, baseline) == 1
    assert "malformed" in capsys.readouterr().out


def test_missing_fresh_passes_with_warning(corpus, capsys):
    baseline, fresh = corpus
    files = [str(fresh / "BENCH_engine.json"),
             str(fresh / "BENCH_never_ran.json")]
    assert main([*files, "--baseline-dir", str(baseline)]) == 0
    assert "missing-fresh" in capsys.readouterr().out


def test_check_file_row_shape(corpus):
    baseline, fresh = corpus
    row = check_file(
        str(fresh / "BENCH_sweep.json"), str(baseline), DEFAULT_THRESHOLD
    )
    assert row["status"] == "ok"
    assert row["metric"] == "after_seconds"
    assert row["ratio"] == pytest.approx(1.0)


def test_committed_artefacts_are_green(tmp_path, monkeypatch):
    """The gate over the repo's committed artefacts (``git show HEAD:``)
    on both sides, so bench smokes that rewrite the working tree's
    copies cannot fail this test; ``make bench-regression`` compares
    fresh runs with them.  Without git history the working tree's
    artefacts are checked with no baseline."""
    monkeypatch.chdir(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )
    files = []
    for path in DEFAULT_FILES:
        committed = load_baseline(path, None)
        if committed is None:
            files.append(path)
        else:
            files.append(_write(tmp_path, os.path.basename(path), committed))
    assert main([*files, "--baseline-dir", str(tmp_path)]) == 0
