"""Scenario: the frozen experiment description and its decomposition."""

import pytest

from repro.sim import configs as cfg
from repro.sim.engine import StormConfig, simulate
from repro.sim.run import compare, run_suite
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


def test_coerces_names_and_single_values():
    scenario = Scenario(configurations=cfg.private(4), workloads="olio")
    assert scenario.configurations == (cfg.private(4),)
    assert scenario.workloads == (get_workload("olio"),)
    assert scenario.workload_names == ("olio",)


def test_accepts_specs_and_iterables():
    spec = get_workload("gups")
    scenario = Scenario(
        configurations=[cfg.private(8), cfg.nocstar(8)],
        workloads=[spec, "olio"],
    )
    assert scenario.num_cores == 8
    assert scenario.workload_names == ("gups", "olio")


def test_unknown_workload_name_rejected():
    with pytest.raises(KeyError, match="hyperloop"):
        Scenario(configurations=cfg.private(4), workloads="hyperloop")


def test_core_count_mismatch_rejected():
    with pytest.raises(ValueError, match="disagree"):
        Scenario(
            configurations=(cfg.private(4), cfg.nocstar(8)),
            workloads="olio",
        )


def test_duplicate_config_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Scenario(
            configurations=(cfg.private(4), cfg.private(4)),
            workloads="olio",
        )


def test_empty_lineup_rejected():
    with pytest.raises(ValueError):
        Scenario(configurations=(), workloads="olio")


@pytest.mark.parametrize("quantum", [0, -1])
def test_quantum_below_one_rejected(quantum):
    with pytest.raises(ValueError, match="quantum"):
        Scenario(configurations=cfg.private(4), workloads="olio",
                 quantum=quantum)


def test_units_are_workload_major():
    scenario = Scenario(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads=("olio", "gups"),
        accesses_per_core=500,
        seed=9,
        storm=StormConfig(period=5_000),
    )
    units = scenario.units()
    assert len(units) == 4
    assert [u.workload.name for u in units] == ["olio", "olio", "gups", "gups"]
    assert [u.config.name for u in units] == [
        "private", "nocstar", "private", "nocstar",
    ]
    assert all(u.seed == 9 and u.storm == scenario.storm for u in units)


def test_for_workload_narrows():
    scenario = Scenario(
        configurations=cfg.paper_lineup(4), workloads=("olio", "gups")
    )
    narrowed = scenario.for_workload("gups")
    assert narrowed.workload_names == ("gups",)
    assert narrowed.configurations == scenario.configurations


def test_simulate_accepts_scenario_and_matches_primitive():
    scenario = Scenario(
        configurations=cfg.nocstar(4),
        workloads="olio",
        accesses_per_core=600,
        seed=5,
    )
    via_scenario = simulate(scenario)
    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=600, seed=5
    )
    via_primitive = simulate(cfg.nocstar(4), workload)
    assert via_scenario == via_primitive


def test_simulate_rejects_lineup_scenarios():
    scenario = Scenario(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="olio",
        accesses_per_core=200,
    )
    with pytest.raises(ValueError, match="single-config"):
        simulate(scenario)


def test_compare_accepts_scenario():
    scenario = Scenario(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="olio",
        accesses_per_core=500,
        seed=3,
    )
    comparison = compare(scenario)
    assert set(comparison.results) == {"private", "nocstar"}
    assert comparison.speedup("nocstar") > 0


def test_compare_scenario_plus_configs_is_an_error():
    scenario = Scenario(configurations=cfg.private(4), workloads="olio")
    with pytest.raises(TypeError):
        compare(scenario, [cfg.private(4)])


@pytest.mark.parametrize("harness", [compare, run_suite])
def test_harness_rejects_built_workloads(harness):
    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=100, seed=3
    )
    with pytest.raises(TypeError, match=r"Runner\.run_prebuilt"):
        harness(workload)
