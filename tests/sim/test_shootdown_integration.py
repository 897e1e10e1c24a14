"""Shootdown machinery end-to-end: sender blocking, leader policies,
storms interacting with the engine."""

from dataclasses import replace

from repro.sim import configs as cfg
from repro.sim.engine import ShootdownTraffic, StormConfig, simulate
from repro.sim.system import System
from repro.vm.address import PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


def test_invalidate_sender_blocks_on_ack():
    """Every relayed invalidate charges its sender the round-trip —
    the mechanism that makes the naive flood congest (Fig 16R)."""
    system = System(cfg.nocstar(8, leader_granularity=1))
    system.apply_shootdown(0, [(1, PAGE_4K, 55)], now=0)
    blocked = [core for core in range(8) if system.pending_penalty[core] > 0]
    assert len(blocked) == 8  # everyone relayed, everyone waits


def test_leader_policy_blocks_only_leader_and_initiator():
    system = System(cfg.nocstar(8, leader_granularity=8))
    system.apply_shootdown(5, [(1, PAGE_4K, 55)], now=0)
    # Non-participants pay only the fixed IPI cost.
    from repro.sim.system import IPI_CYCLES

    bystanders = [
        core for core in range(8)
        if core not in (0, 5) and system.pending_penalty[core] == IPI_CYCLES
    ]
    assert len(bystanders) == 6
    assert system.pending_penalty[0] > IPI_CYCLES  # the leader worked
    assert system.pending_penalty[5] > IPI_CYCLES  # the initiator waited


def test_flood_costs_more_total_stall_than_leaders():
    entries = [(1, PAGE_4K, pn) for pn in range(16)]
    flood = System(cfg.nocstar(16, leader_granularity=1))
    lead = System(cfg.nocstar(16, leader_granularity=8))
    flood.apply_shootdown(0, entries, now=0)
    lead.apply_shootdown(0, entries, now=0)
    assert sum(flood.pending_penalty) > sum(lead.pending_penalty)


class _CountingDict(dict):
    """A dict that counts its ``get`` calls and membership tests in
    ``probes``."""

    probes = 0

    def get(self, key, default=None):
        _CountingDict.probes += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        _CountingDict.probes += 1
        return dict.__contains__(self, key)


def test_naive_leader_sweeps_probe_each_port_cycle_a_bounded_number_of_times():
    """Every core sends an invalidate to every home slice, so the sweeps
    of one burst arrive inside runs of write-port cycles that earlier
    sweeps filled.  Each booked write costs a bounded number of port
    probes (full-cycle tests, cycle counts and skip-map reads), not a
    rescan of the run: at 64 cores the rescans cost 33.5 per write."""
    system = System(cfg.distributed(64, leader_granularity=1))
    ports = system.shared_l2.write_ports
    _CountingDict.probes = 0
    for port in ports:
        port._starts = _CountingDict()
        port._skip = _CountingDict()
    entries = [(1, PAGE_4K, 512 + i) for i in range(512)]
    system.apply_shootdown(0, entries, now=1000)
    writes = sum(sum(port._starts.values()) for port in ports)
    assert writes == 64 * 512  # 64 senders x 8 entries per home slice
    assert _CountingDict.probes <= 6 * writes


def test_engine_applies_pending_penalty():
    """Penalties accumulated by shootdowns stretch the run."""
    wl = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=1200, seed=3
    )
    quiet = simulate(cfg.nocstar(4), wl)
    noisy = simulate(
        cfg.nocstar(4), wl,
        shootdown=ShootdownTraffic(period=400, entries_per_event=16),
    )
    assert noisy.cycles > quiet.cycles
    assert noisy.stats.shootdown_messages > 0


def test_storm_flush_affects_shared_and_private():
    wl = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=1500, seed=3
    )
    storm = StormConfig(period=2000, burst_entries=64)
    for config in (cfg.private(4), cfg.nocstar(4)):
        quiet = simulate(config, wl)
        stormy = simulate(config, wl, storm=storm)
        assert stormy.stats.flushes >= 1
        assert stormy.cycles > quiet.cycles


def test_round_trip_mode_runs_clean():
    """ROUND_TRIP acquisition must hold/release without tripping the
    held-link protocol check, across hits, misses, and prefetches."""
    from repro.core.config import NocstarConfig, ROUND_TRIP

    wl = build_multithreaded(
        get_workload("canneal"), 8, accesses_per_core=1500, seed=5
    )
    config = cfg.nocstar(8, config=NocstarConfig(acquire=ROUND_TRIP))
    config = replace(config, prefetch_distances=(1,))
    result = simulate(config, wl)
    assert result.cycles > 0
    assert result.stats.prefetches > 0


def test_remote_ptw_with_round_trip_mode():
    from repro.core.config import NocstarConfig, ROUND_TRIP

    wl = build_multithreaded(
        get_workload("olio"), 8, accesses_per_core=1200, seed=5
    )
    config = cfg.nocstar(8, config=NocstarConfig(acquire=ROUND_TRIP))
    config = replace(config, ptw_policy=cfg.PTW_REMOTE)
    result = simulate(config, wl)
    assert result.stats.walks > 0
