"""Configuration factories (Table II)."""

from dataclasses import replace

import pytest

from repro.core.config import NocstarConfig
from repro.exec.cache import canonical_json
from repro.sim import configs as cfg
from repro.sim.engine import simulate
from repro.sim.system import System
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


def test_private_factory():
    config = cfg.private(16)
    assert config.scheme == cfg.PRIVATE
    assert config.entries_per_core == 1024


def test_monolithic_banks_follow_core_count():
    assert cfg.monolithic(32).monolithic_banks == 4
    assert cfg.monolithic(64).monolithic_banks == 8


@pytest.mark.parametrize(
    "banks, message",
    [
        (-4, "monolithic_banks must be at least 1, got -4"),
        (0, "monolithic_banks must be at least 1, got 0"),
        (6, "monolithic_banks gives 6 banks, which do not divide the "
            "monolith's 16384 entries"),
    ],
)
def test_monolithic_banks_are_checked_at_construction(banks, message):
    """A bank count below 1 used to raise IndexError inside System (or,
    at 0, silently mean the default), and a non-divisor failed in the
    shared TLB with a message that named no field."""
    with pytest.raises(ValueError, match=message):
        replace(cfg.monolithic(16), monolithic_banks=banks)


def test_banks_resolve_the_default_once():
    assert cfg.monolithic(16).banks == 4
    assert replace(cfg.monolithic(16), monolithic_banks=None).banks == 4
    assert replace(cfg.monolithic(64), monolithic_banks=None).banks == 8
    config = replace(cfg.monolithic(16), monolithic_banks=2)
    assert config.banks == 2
    assert System(config).shared_l2.num_shards == 2


def test_monolithic_noc_variants():
    assert cfg.monolithic(16).name == "monolithic-mesh"
    assert cfg.monolithic(16, noc="smart").name == "monolithic-smart"
    with pytest.raises(ValueError):
        cfg.monolithic(16, noc="bus")


def test_monolithic_fixed_latency_disables_network():
    config = cfg.monolithic(32, fixed_latency=25)
    assert config.fixed_shared_latency == 25
    assert config.interconnect == cfg.ZERO
    assert config.name == "monolithic-25cc"


def test_nocstar_uses_area_normalised_slices():
    config = cfg.nocstar(16)
    assert config.entries_per_core == 920


def test_nocstar_custom_config_propagates():
    custom = NocstarConfig(hpc_max=4, slice_entries=920)
    config = cfg.nocstar(16, config=custom)
    assert config.nocstar.hpc_max == 4


def test_ideal_and_nocstar_ideal():
    assert cfg.ideal(16).interconnect == cfg.ZERO
    assert cfg.nocstar_ideal(16).nocstar_ideal


def test_paper_lineup_names():
    names = [c.name for c in cfg.paper_lineup(16)]
    assert names == [
        "private", "monolithic-mesh", "distributed", "nocstar", "ideal"
    ]


def test_validation():
    with pytest.raises(ValueError):
        cfg.SystemConfig(name="x", num_cores=0, scheme=cfg.PRIVATE)
    with pytest.raises(ValueError):
        cfg.SystemConfig(name="x", num_cores=4, scheme="hybrid")
    with pytest.raises(ValueError):
        cfg.SystemConfig(
            name="x", num_cores=4, scheme=cfg.PRIVATE, ptw_policy="nowhere"
        )
    with pytest.raises(ValueError):
        cfg.SystemConfig(
            name="x", num_cores=4, scheme=cfg.PRIVATE, translation_overlap=1.0
        )


def test_renamed():
    assert cfg.private(8).renamed("baseline").name == "baseline"


# ---------------------------------------------------------------------------
# replacement policy / arbitration axis


def test_policy_and_arbitration_validated():
    with pytest.raises(ValueError, match="policy"):
        cfg.SystemConfig(
            name="x", num_cores=4, scheme=cfg.PRIVATE, policy="belady"
        )
    with pytest.raises(ValueError, match="arbitration"):
        cfg.SystemConfig(
            name="x", num_cores=4, scheme=cfg.PRIVATE, arbitration="lottery"
        )


def test_policy_defaults_stay_lru_fifo():
    config = cfg.nocstar(8)
    assert config.policy == "lru"
    assert config.arbitration == "fifo"


def test_registered_policy_variants():
    for name, policy, arbitration in [
        ("distributed-arc", "arc", "fifo"),
        ("distributed-twoq", "twoq", "fifo"),
        ("distributed-prio", "lru", "priority"),
        ("nocstar-arc", "arc", "fifo"),
        ("nocstar-twoq", "twoq", "fifo"),
        ("nocstar-prio", "lru", "priority"),
    ]:
        config = cfg.build_config(name, 8)
        assert config.name == name
        assert config.policy == policy
        assert config.arbitration == arbitration


def test_paper_lineup_accepts_policy_override():
    lineup = cfg.paper_lineup(8, policy="arc")
    assert all(config.policy == "arc" for config in lineup)


def test_policy_is_a_cache_key_field():
    """Two units differing only in policy/arbitration never alias."""
    from repro.exec.cache import unit_key
    from repro.sim.scenario import Scenario

    def key_for(config):
        scenario = Scenario(
            configurations=(config,),
            workloads=("gups",),
            accesses_per_core=100,
            baseline_name=config.name,
        )
        return unit_key(scenario.units()[0], "1")

    base = cfg.distributed(8)
    keys = {
        key_for(base),
        key_for(cfg.build_config("distributed-arc", 8).renamed("distributed")),
        key_for(cfg.build_config("distributed-prio", 8).renamed("distributed")),
    }
    assert len(keys) == 3


# ---------------------------------------------------------------------------
# values that would simulate nonsense


@pytest.mark.parametrize("cores", [3, 6, 12])
@pytest.mark.parametrize("indexing", ["xor-fold", "asid-mix"])
@pytest.mark.parametrize("name", ["distributed", "nocstar", "ideal"])
def test_folds_reject_a_slice_count_that_is_not_a_power_of_two(
    name, indexing, cores
):
    """The folds XOR page-number bit groups, which skip slices unless
    there is a power of two of them (3 slices reached only {0, 2})."""
    with pytest.raises(ValueError, match=f"num_cores gives {cores}"):
        cfg.build_config(name, cores, slice_indexing=indexing)


def test_folds_reject_a_bank_count_that_is_not_a_power_of_two():
    with pytest.raises(ValueError, match="monolithic_banks gives 6"):
        replace(
            cfg.monolithic(16), monolithic_banks=6, slice_indexing="xor-fold"
        )
    # A 12-core monolith has 4 banks, so it may fold.
    assert cfg.monolithic(12, slice_indexing="asid-mix").monolithic_banks == 4


def test_folds_accept_powers_of_two_and_private_l2s():
    for cores in (1, 2, 4, 16, 64):
        cfg.distributed(cores, slice_indexing="xor-fold")
        cfg.nocstar(cores, slice_indexing="asid-mix")
    cfg.private(3, slice_indexing="xor-fold")  # private L2s have no slices


@pytest.mark.parametrize("indexing", ["xor-fold", "asid-mix"])
@pytest.mark.parametrize("name", ["distributed", "nocstar", "ideal"])
def test_one_core_folds_simulate_as_modulo(name, indexing):
    """One slice homes every page whatever the indexer, so the run ends
    (the fold used to spin inside ``home()``) with the modulo bytes."""
    workload = build_multithreaded(
        get_workload("gups"), 1, accesses_per_core=20, seed=3
    )
    modulo = simulate(cfg.build_config(name, 1), workload)
    folded = simulate(
        cfg.build_config(name, 1, slice_indexing=indexing), workload
    )
    assert canonical_json(folded) == canonical_json(modulo)


@pytest.mark.parametrize(
    "name",
    ["private", "distributed", "nocstar", "ideal", "monolithic",
     "monolithic-smart"],
)
def test_fixed_shared_latency_needs_a_monolith_with_no_network(name):
    """Elsewhere the field was ignored, or added to the network legs it
    claims to replace."""
    with pytest.raises(ValueError, match="fixed_shared_latency"):
        replace(cfg.build_config(name, 4), fixed_shared_latency=16)
    assert cfg.monolithic(4, fixed_latency=0).fixed_shared_latency == 0


def test_fixed_shared_latency_rejects_negative_cycles():
    """-5 cycles ended every slice lookup before it started."""
    with pytest.raises(ValueError, match="fixed_shared_latency"):
        cfg.monolithic(4, fixed_latency=-5)
    with pytest.raises(ValueError, match="fixed_shared_latency"):
        replace(
            cfg.build_config("monolithic-smart", 4), fixed_shared_latency=-5
        )


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_l1_scale_must_be_a_positive_factor(scale):
    """-1.0 cut every L1 array to one 4-entry set."""
    with pytest.raises(ValueError, match="l1_scale"):
        cfg.nocstar(4, l1_scale=scale)
