"""One L2 organisation per configuration.

``SystemConfig.l2_structures`` builds the L2 for both ``System`` and the
offline replay (``repro.tlb.opt``), and ``System`` prices its static
power, L2 lookup energy and network summary off the built L2 and
fabric.  These tests hold the replay to ``System``'s arrays and homes,
and hold the pricing to the formulas that branched on scheme and
interconnect before the structures stated their own cost, kept here
verbatim as the oracle.
"""

import random
from dataclasses import replace

import pytest

from repro.energy.components import ARBITERS_POWER_MW, SWITCH_POWER_MW
from repro.energy.model import EnergyModel
from repro.mem import sram
from repro.sim import configs as cfg
from repro.sim.system import System
from repro.tlb.opt import _PreparedStream, arrays_of, canonical_stream
from repro.vm.address import PAGE_2M, PAGE_4K
from repro.workloads.trace import Workload

_MEGA = tuple(f"-{n}" for n in cfg.MEGA_CORE_COUNTS)


def _configs(core_counts):
    """Every registered configuration at each of ``core_counts`` (the
    ``-256`` mega names at 256 only), plus the unnamed shapes: the
    fixed-latency monolith and a folded slice index."""
    configs = []
    for name in cfg.available_configs():
        if name.endswith(_MEGA):
            if name.endswith("-256"):
                configs.append(cfg.build_config(name, 256))
            continue
        configs += [cfg.build_config(name, n) for n in core_counts]
    for n in core_counts:
        configs.append(cfg.monolithic(n, fixed_latency=16))
        configs.append(replace(cfg.distributed(n), slice_indexing="xor-fold"))
    return configs


def _id(config):
    return f"{config.name}@{config.num_cores}"


_REPLAY_CONFIGS = _configs((1, 4, 16))
_PRICED_CONFIGS = _configs((8, 64))


def _system_arrays(system):
    if system.shared_l2 is None:
        return [l2.array for l2 in system.private_l2]
    return system.shared_l2.shards


@pytest.mark.parametrize("config", _REPLAY_CONFIGS, ids=_id)
def test_replay_builds_the_arrays_system_builds(config):
    system = System(config)
    built = _system_arrays(system)
    replayed = arrays_of(config.l2_structures())
    assert len(replayed) == len(built)
    for ours, theirs in zip(replayed, built):
        assert ours is not theirs
        assert ours.entries == theirs.entries
        assert ours.ways == theirs.ways
        assert ours.index_shift == theirs.index_shift
        assert ours.policy == theirs.policy == config.policy


@pytest.mark.parametrize("config", _REPLAY_CONFIGS, ids=_id)
def test_replay_homes_each_record_where_system_does(config):
    """Random ``(asid, page)`` records on every core land in the shard
    ``System`` probes (the requester's own private L2, or the shared
    structure's home) and in the set that shard's array indexes."""
    rng = random.Random(config.num_cores)
    n = config.num_cores
    traces = [
        [[
            (1, rng.randrange(1, 9), rng.choice((PAGE_4K, PAGE_2M)),
             rng.randrange(1 << 30))
            for _ in range(16)
        ]]
        for _ in range(n)
    ]
    workload = Workload("homes", traces, seed=0, superpages=True)
    prepared = _PreparedStream(workload, config.l2_structures())
    system = System(config)
    shared, arrays = system.shared_l2, _system_arrays(system)
    for (core, asid, _, page), (shard, slot, _, _) in zip(
        canonical_stream(workload), prepared.records
    ):
        home = core if shared is None else shared.home(page, asid)
        array = arrays[home]
        index = (page >> array.index_shift) % array.num_sets
        assert (shard, slot) == (home, home * array.num_sets + index)


# ---------------------------------------------------------------------------
# Pricing: the pre-change formulas, verbatim.

MESH_ROUTER_MW = 3.0
SMART_ROUTER_MW = 3.4


def _static_power_mw_oracle(system):
    config = system.config
    n = config.num_cores
    if config.scheme == cfg.PRIVATE:
        return n * sram.budget(config.entries_per_core).power_mw
    if config.scheme == cfg.MONOLITHIC:
        power = sram.budget(config.entries_per_core * n).power_mw
        if config.interconnect == cfg.SMART:
            power += n * SMART_ROUTER_MW
        elif config.interconnect == cfg.MESH:
            power += n * MESH_ROUTER_MW
        return power
    power = n * sram.budget(config.entries_per_core).power_mw
    if config.scheme == cfg.NOCSTAR:
        power += n * (SWITCH_POWER_MW + ARBITERS_POWER_MW)
    elif config.scheme == cfg.DISTRIBUTED:
        if config.interconnect == cfg.BUS:
            power += n * 0.5  # wire drivers only
        elif config.interconnect in (cfg.FBFLY_WIDE, cfg.FBFLY_NARROW):
            power += n * 2 * MESH_ROUTER_MW  # high-radix crossbars
        else:
            power += n * MESH_ROUTER_MW
    return power


def _l2_lookup_pj_oracle(system):
    model = EnergyModel()
    if system.config.scheme == cfg.PRIVATE:
        entries = system.config.entries_per_core
        accesses = sum(l2.accesses for l2 in system.private_l2)
        model.l2_lookup(entries, accesses)
    else:
        if system._is_monolithic:
            entries = system.config.entries_per_core * system.config.num_cores
        else:
            entries = system.config.entries_per_core
        model.l2_lookup(entries, system.shared_l2.accesses)
    return model.breakdown.sram_pj


@pytest.mark.parametrize("config", _PRICED_CONFIGS, ids=_id)
def test_static_power_and_l2_lookup_energy_match_the_oracle(config):
    system = System(config)
    for i, array in enumerate(_system_arrays(system)):
        array.hits, array.misses = 3 * i + 1, i % 5
    assert system.static_power_mw() == _static_power_mw_oracle(system)
    # No L1 lookups yet, so the SRAM energy is the L2's alone.
    assert system.stats.l1_accesses == 0
    energy = system.energy_summary(cycles=10_000)
    assert energy["sram"] == _l2_lookup_pj_oracle(system)
    assert energy["sram"] > 0
