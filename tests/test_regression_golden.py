"""Golden regression pins.

The simulator is deterministic (explicit seeds everywhere, no wall
clock, no hash randomisation in the hot paths), so these exact numbers
must reproduce bit-for-bit.  If a change moves them, it changed
simulated behaviour: re-derive the goldens *deliberately* (run this
file's ``print`` helper) and justify the delta in the commit.
"""

import numpy as np
import pytest

from repro.sim import configs as cfg
from repro.sim.engine import ShootdownTraffic, StormConfig, simulate
from repro.vm.address import PAGE_2M, PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload
from repro.workloads.trace import Workload

GOLDEN = [
    # (config name, total cycles, shared/private L2 misses)
    ("private", 58671, 2124),
    ("monolithic-mesh", 64388, 1569),
    ("distributed", 57034, 1569),
    ("nocstar", 55520, 1569),
    ("ideal", 54440, 1569),
]

FACTORIES = {
    "private": cfg.private,
    "monolithic-mesh": cfg.monolithic,
    "distributed": cfg.distributed,
    "nocstar": cfg.nocstar,
    "ideal": cfg.ideal,
}


@pytest.fixture(scope="module")
def workload():
    return build_multithreaded(
        get_workload("canneal"), 8, accesses_per_core=2500, seed=99
    )


@pytest.mark.parametrize("name,cycles,misses", GOLDEN)
def test_golden(workload, name, cycles, misses):
    result = simulate(FACTORIES[name](8), workload)
    assert result.cycles == cycles
    assert result.stats.l2_misses == misses


# 64-core pins: the scale the batched engine and RouteCache target.
# Derived with the same helper; both engines must reproduce them (the
# differential suite proves batched == reference, these prove neither
# drifts from history).
GOLDEN_64 = [
    ("distributed", 20941, 5067),
    ("monolithic-smart", 21803, 5067),
    ("nocstar", 18656, 5067),
]


@pytest.fixture(scope="module")
def workload_64():
    return build_multithreaded(
        get_workload("graph500"), 64, accesses_per_core=1000, seed=21
    )


@pytest.mark.parametrize("name,cycles,misses", GOLDEN_64)
def test_golden_64_cores(workload_64, name, cycles, misses):
    result = simulate(cfg.build_config(name, 64), workload_64)
    assert result.cycles == cycles
    assert result.stats.l2_misses == misses


# Mega-mesh pins: the 256/512/1024-tile configs the vectorized engine
# targets (ROADMAP item 1), mirroring the 64-core pins.  Per-core depth
# shrinks with scale to keep the suite fast — mega streams are cold-miss
# dominated, so even short traces exercise every slice and the walker.
# Derived with the same helper.
GOLDEN_MEGA = [
    ("distributed-256", 4434, 5177),
    ("nocstar-256", 3926, 5177),
    ("monolithic-smart-256", 10344, 5177),
    ("distributed-512", 3517, 6703),
    ("nocstar-512", 3277, 6703),
    ("monolithic-smart-512", 12744, 6703),
    ("distributed-1024", 2943, 7598),
    ("nocstar-1024", 2462, 7598),
    ("monolithic-smart-1024", 14168, 7598),
]

MEGA_ACCESSES = {256: 25, 512: 15, 1024: 8}


@pytest.fixture(scope="module")
def mega_workloads():
    return {
        cores: build_multithreaded(
            get_workload("graph500"), cores,
            accesses_per_core=accesses, seed=21,
        )
        for cores, accesses in MEGA_ACCESSES.items()
    }


@pytest.mark.parametrize("name,cycles,misses", GOLDEN_MEGA)
def test_golden_mega_mesh(mega_workloads, name, cycles, misses):
    cores = int(name.rsplit("-", 1)[1])
    result = simulate(cfg.build_config(name, cores), mega_workloads[cores])
    assert result.cycles == cycles
    assert result.stats.l2_misses == misses


def test_mega_goldens_cover_every_mega_config():
    registered = {
        n for n in cfg.available_configs() if n.rsplit("-", 1)[-1].isdigit()
    }
    assert registered == {g[0] for g in GOLDEN_MEGA}


# Replacement-policy zoo pins, taken at the area-constrained operating
# point (128 entries/core) where the replacement choice actually moves
# the numbers: campaign-scale canneal fits the stock 1024-entry slices,
# and every policy ties there.  Derived with the same helper.
GOLDEN_POLICY = [
    ("distributed", 60473, 1834),
    ("distributed-arc", 58652, 1747),
    ("distributed-twoq", 60953, 2062),
    ("distributed-prio", 60473, 1834),
    ("nocstar", 59488, 1830),
    ("nocstar-arc", 57533, 1742),
    ("nocstar-twoq", 59635, 2064),
    ("nocstar-prio", 59488, 1830),
]


@pytest.mark.parametrize("name,cycles,misses", GOLDEN_POLICY)
def test_golden_policy_zoo(workload, name, cycles, misses):
    from dataclasses import replace

    config = replace(cfg.build_config(name, 8), entries_per_core=128)
    result = simulate(config, workload)
    assert result.cycles == cycles
    assert result.stats.l2_misses == misses


def test_policy_goldens_are_internally_consistent():
    cycles = {g[0]: g[1] for g in GOLDEN_POLICY}
    # ARC adapts past pure recency on canneal; 2Q's probation FIFO
    # hurts it.  The ordering is part of the pin.
    for base in ("distributed", "nocstar"):
        assert cycles[f"{base}-arc"] < cycles[base] < cycles[f"{base}-twoq"]
        # Priority arbitration is byte-identical to FIFO without port
        # contention (class-0/uncontended identity) — a deliberate pin:
        # if this tie breaks, the arbiter changed demand-path behaviour.
        assert cycles[f"{base}-prio"] == cycles[base]


# Write-side pins: storms and shootdown trains over a hand-built trace
# whose 4KB pages lie where storm bursts and shootdown trains land (the
# generated workloads' pages never do), so invalidations really drop
# L1/L2 entries and ARC/2Q ghosts.  Derived with the same helper.
WRITE_SIDE_TRAFFIC = {
    "storm": dict(storm=StormConfig(period=4000, burst_entries=64)),
    "storm-noflush": dict(
        storm=StormConfig(period=1500, burst_entries=96, flush=False)
    ),
    "shootdown": dict(
        shootdown=ShootdownTraffic(
            period=1000, entries_per_event=24, initiators=2
        )
    ),
}

GOLDEN_WRITE_SIDE = [
    # (config, policy, leader granularity, traffic,
    #  cycles, L2 misses, shootdown messages)
    ("private", "lru", 8, "storm", 161908, 11930, 0),
    ("private", "arc", 8, "storm-noflush", 166869, 10070, 0),
    ("monolithic", "arc", 8, "shootdown", 142494, 3896, 1384),
    ("distributed", "twoq", 8, "storm-noflush", 109003, 4103, 639),
    ("distributed", "lru", 2, "shootdown", 113905, 3896, 1920),
    ("nocstar", "lru", 8, "storm", 159649, 11470, 346),
    ("nocstar", "arc", 1, "shootdown", 117783, 3896, 14976),
]


def write_side_workload(cores=8, accesses=1500, seed=5):
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(cores):
        pages = rng.integers(100, 1600, size=accesses).tolist()
        asids = rng.integers(0, 2, size=accesses).tolist()
        gaps = (1 + rng.poisson(3, size=accesses)).tolist()
        sizes = np.where(
            rng.random(accesses) < 0.1, PAGE_2M, PAGE_4K
        ).tolist()
        traces.append([list(zip(gaps, asids, sizes, pages))])
    return Workload("write-side", traces, seed=seed, superpages=True)


@pytest.fixture(scope="module")
def write_side():
    return write_side_workload()


@pytest.mark.parametrize(
    "name,policy,leaders,traffic,cycles,misses,messages", GOLDEN_WRITE_SIDE
)
def test_golden_write_side(
    write_side, name, policy, leaders, traffic, cycles, misses, messages
):
    config = cfg.build_config(
        name, 8, policy=policy, leader_granularity=leaders
    )
    result = simulate(config, write_side, **WRITE_SIDE_TRAFFIC[traffic])
    assert result.cycles == cycles
    assert result.stats.l2_misses == misses
    assert result.stats.shootdown_messages == messages


def test_goldens_are_internally_consistent():
    names = [g[0] for g in GOLDEN]
    cycles = {g[0]: g[1] for g in GOLDEN}
    assert set(names) == set(FACTORIES)
    # The pinned numbers themselves encode the paper's ordering.
    assert (
        cycles["ideal"] < cycles["nocstar"] < cycles["distributed"]
        < cycles["private"] < cycles["monolithic-mesh"]
    )
