"""The end-to-end A/B summary: medians, quartiles, ranges, change, pairs
won and each metric's verdict."""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                 "tools"),
)

from e2e_ab import (  # noqa: E402
    declared_metrics,
    main,
    parse_result,
    quartiles,
    summarize,
    verdict,
)

METRICS = [
    {"name": "sim_ref", "unit": "ref", "better": "lower", "bound": 0.1},
    {"name": "l2_tx_per_ref", "unit": "1/ref", "better": "higher",
     "bound": 0.1},
]


def line(sim_ref, l2_tx, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {
            "sim_ref": {"value": sim_ref, "unit": "ref"},
            "l2_tx_per_ref": {"value": l2_tx, "unit": "1/ref"},
        },
    })


def row(text, name):
    return next(r for r in text.splitlines() if r.startswith(name + " "))


def test_medians_ranges_change_and_pairs_won():
    parent = [line(1000, 50), line(1100, 52), line(1040, 51)]
    change = [line(900, 55), line(1200, 52), line(930, 56)]
    text, ok = summarize(METRICS, parent, change)
    assert ok and text.endswith("every run correct")
    sim = row(text, "sim_ref").split()
    assert sim[:4] == ["sim_ref", "ref", "lower", "10%"]
    assert sim[4:] == ["1,040", "[1,020–1,070]", "(1,000–1,100)",
                       "930", "[915–1,065]", "(900–1,200)",
                       "-10.6%", "2/3", "ok"]
    # Higher is better here, and pair 2's tie counts for neither side.
    tx = row(text, "l2_tx_per_ref").split()
    assert tx[4:] == ["51", "[50.5–51.5]", "(50–52)",
                      "55", "[53.5–55.5]", "(52–56)", "+7.8%", "2/3", "ok"]


def test_failed_runs_are_named_and_fail_the_summary():
    parent = [line(1000, 50), ""]
    change = [line(900, 55, correct=False, failed=2), "Traceback (most"]
    text, ok = summarize(METRICS, parent, change)
    assert not ok
    assert "parent run 2: printed no JSON result" in text
    assert "change run 1: not correct (2 of 10 operations failed)" in text
    assert "change run 2: printed no JSON result" in text
    # Only the pair where both sides printed values is compared.
    assert row(text, "sim_ref").split()[-3:] == ["-10.0%", "1/1", "ok"]


def test_a_metric_no_run_reports_prints_dashes():
    text, _ = summarize(
        METRICS + [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}],
        [line(1000, 50)], [line(900, 55)],
    )
    assert row(text, "peak_rss_mb").split()[3:] == ["-"] * 6


SIM, TX = METRICS


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert verdict(SIM, [1000, 1010, 1005], [1100, 1120, 1110]) == "worse"
    assert verdict(SIM, [1000, 1010, 1005], [1100, 1090, 1095]) == "ok"
    # Higher is better: a fall of more than the bound is worse.
    assert verdict(TX, [50, 50, 51], [43, 44, 44]) == "worse"
    assert verdict(TX, [50, 50, 51], [46, 46, 46]) == "ok"
    text, _ = summarize(
        METRICS, [line(1000, 50), line(1010, 50), line(1005, 51)],
        [line(1100, 46), line(1120, 46), line(1110, 46)],
    )
    assert row(text, "sim_ref").split()[-1] == "worse"
    assert row(text, "l2_tx_per_ref").split()[-1] == "ok"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [800, 900, 1000, 1100, 1200]  # quartiles 900-1100: 20%
    assert quartiles(parent) == (900, 1100)
    assert verdict(SIM, parent, [850, 950, 1000, 1000, 1250]) == "unresolved"
    # Unless every change run beats every parent run.
    assert verdict(SIM, parent, [700, 710, 720, 750, 790]) == "ok"
    assert verdict(SIM, parent, [700, 710, 720, 750, 800]) == "unresolved"
    # A median worse by more than the bound is worse, spread or not.
    assert verdict(SIM, parent, [1150, 1200, 1250]) == "worse"


def test_a_metric_without_a_bound_or_a_zero_median_has_no_verdict():
    rss = {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}
    assert verdict(rss, [10, 11], [20, 21]) == "-"
    assert verdict(SIM, [0, 0, 0], [5, 5, 5]) == "-"
    assert quartiles([7]) == (7, 7)


def test_parse_result_keeps_the_values_of_an_incorrect_run():
    assert parse_result(line(7, 8)) == ({"sim_ref": 7, "l2_tx_per_ref": 8}, "")
    values, problem = parse_result(line(7, 8, correct=False, failed=1))
    assert values == {"sim_ref": 7, "l2_tx_per_ref": 8}
    assert problem.startswith("not correct")
    assert parse_result('{"other": 1}') == (None, "printed no JSON result")


def test_every_declared_metric_has_a_direction():
    metrics = declared_metrics()
    assert {m["name"] for m in metrics} >= {"sim_ref", "peak_rss_mb"}
    assert {m["better"] for m in metrics} <= {"lower", "higher"}


def test_trees_without_the_benchmark_are_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), str(tmp_path), "--workload", "storm-64"])
    assert exc.value.code == 2
    assert "has no benchmarks/e2e/run.py" in capsys.readouterr().err
