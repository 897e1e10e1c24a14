"""Run harness: comparisons, suites, summaries."""

import pytest

from repro.sim import configs as cfg
from repro.sim.run import compare, run_suite, summarize_speedups
from repro.sim.scenario import Scenario


@pytest.fixture(scope="module")
def comparison():
    return compare(
        Scenario(
            configurations=(cfg.private(4), cfg.nocstar(4), cfg.ideal(4)),
            workloads="olio",
            accesses_per_core=2000,
            seed=3,
        )
    )


def test_speedups_exclude_baseline(comparison):
    speedups = comparison.speedups()
    assert set(speedups) == {"nocstar", "ideal"}


def test_baseline_required():
    scenario = Scenario(
        configurations=cfg.nocstar(4),
        workloads="olio",
        accesses_per_core=200,
        seed=3,
    )
    with pytest.raises(ValueError):
        compare(scenario)


def test_misses_eliminated_positive(comparison):
    assert comparison.misses_eliminated_pct("nocstar") > 0


def test_run_suite_subset():
    comparisons = run_suite(
        Scenario(
            configurations=(cfg.private(4), cfg.nocstar(4)),
            workloads=("olio", "gups"),
            accesses_per_core=1000,
        )
    )
    assert set(comparisons) == {"olio", "gups"}
    for c in comparisons.values():
        assert c.speedup("nocstar") > 0


def test_summarize_speedups():
    comparisons = run_suite(
        Scenario(
            configurations=(cfg.private(4), cfg.nocstar(4)),
            workloads=("olio", "gups", "nutch"),
            accesses_per_core=1000,
        )
    )
    summary = summarize_speedups(comparisons, "nocstar")
    assert summary.minimum <= summary.average <= summary.maximum
