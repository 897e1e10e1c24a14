"""Engine mechanics: trace consumption, storms, SMT, determinism."""

import gc

import pytest

from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import (
    ShootdownTraffic,
    StormConfig,
    WatchdogExpired,
    simulate,
)
from repro.sim.system import System
from repro.vm.address import PAGE_4K
from repro.workloads.trace import Workload


def tiny_workload(num_cores=2, accesses=50, gap=2, smt=1, stride=1):
    traces = []
    for core in range(num_cores):
        streams = []
        for s in range(smt):
            streams.append(
                [
                    (gap, 1, PAGE_4K, 1000 + core * 7919 + i * stride)
                    for i in range(accesses)
                ]
            )
        traces.append(streams)
    return Workload("tiny", traces, seed=0, superpages=False)


def test_cycles_cover_all_work():
    wl = tiny_workload(accesses=100, gap=3)
    result = simulate(cfg.private(2), wl)
    # Every access costs at least gap+1 cycles.
    assert result.cycles >= 100 * 4
    assert len(result.per_core_cycles) == 2


def test_all_accesses_observed():
    wl = tiny_workload(num_cores=2, accesses=100)
    result = simulate(cfg.private(2), wl)
    assert result.stats.l1_accesses == 200


def test_core_count_mismatch_rejected():
    with pytest.raises(ValueError):
        simulate(cfg.private(4), tiny_workload(num_cores=2))


def test_deterministic():
    wl = tiny_workload(num_cores=4, accesses=200)
    a = simulate(cfg.nocstar(4), wl)
    b = simulate(cfg.nocstar(4), wl)
    assert a.cycles == b.cycles
    assert a.per_core_cycles == b.per_core_cycles


def test_repeated_page_hits_l1():
    wl = tiny_workload(accesses=100, stride=0)  # same page forever
    result = simulate(cfg.private(2), wl)
    assert result.stats.l1_misses == 2  # one compulsory miss per core
    assert result.stats.l1_hits == 198


def test_smt_streams_share_l1():
    wl = tiny_workload(num_cores=1, accesses=50, smt=2)
    result = simulate(cfg.private(1), wl)
    assert result.stats.l1_accesses == 100


def test_storm_flushes_cause_refetches():
    wl = tiny_workload(num_cores=2, accesses=400, stride=0)
    quiet = simulate(cfg.private(2), wl)
    stormy = simulate(
        cfg.private(2), wl, storm=StormConfig(period=300, burst_entries=16)
    )
    assert stormy.stats.flushes >= 1
    assert stormy.stats.l1_misses > quiet.stats.l1_misses
    assert stormy.cycles > quiet.cycles


def test_storm_period_validated():
    with pytest.raises(ValueError):
        StormConfig(period=0)


def test_shootdown_traffic_sends_messages():
    wl = tiny_workload(num_cores=4, accesses=400)
    result = simulate(
        cfg.nocstar(4),
        wl,
        shootdown=ShootdownTraffic(period=200, entries_per_event=4),
    )
    assert result.stats.shootdown_messages > 0


def test_shootdown_period_validated():
    with pytest.raises(ValueError):
        ShootdownTraffic(period=-1)


def test_app_cycles_populated():
    wl = tiny_workload(num_cores=2, accesses=50)
    wl.info["apps"] = {"left": [0], "right": [1]}
    result = simulate(cfg.private(2), wl)
    assert set(result.app_cycles) == {"left", "right"}
    assert result.app_cycles["left"] > 0


def test_quantum_does_not_change_results_much():
    """The run-ahead quantum is a performance knob, not a semantics one:
    total cycles should be nearly identical across quantum choices."""
    wl = tiny_workload(num_cores=4, accesses=300, stride=3)
    a = simulate(cfg.nocstar(4), wl, quantum=64)
    b = simulate(cfg.nocstar(4), wl, quantum=1024)
    assert abs(a.cycles - b.cycles) / max(a.cycles, 1) < 0.05


@pytest.mark.parametrize("quantum", [0, -1])
def test_quantum_below_one_fails_before_building_a_system(
    quantum, monkeypatch
):
    """Time never advances with a quantum below one cycle, so every
    drive loop would spin forever, watchdog or not."""
    monkeypatch.setattr(
        engine, "System",
        lambda *a, **k: pytest.fail("System built for an invalid quantum"),
    )
    with pytest.raises(ValueError, match="quantum"):
        simulate(
            cfg.distributed(4), tiny_workload(num_cores=4),
            quantum=quantum, watchdog_cycles=10_000,
        )


def test_every_run_pauses_the_collector(monkeypatch):
    """The cyclic collector is off while a run executes, back on after
    it returns or raises, and left off for a caller that turned it off."""
    seen = []
    real = System.l2_transaction

    def spy(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(System, "l2_transaction", spy)
    wl = tiny_workload(num_cores=4)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        simulate(cfg.distributed(4), wl)
        assert seen and not any(seen)
        assert gc.isenabled()

        with pytest.raises(WatchdogExpired):
            simulate(cfg.distributed(4), wl, watchdog_cycles=10)
        assert gc.isenabled()

        gc.disable()
        simulate(cfg.distributed(4), wl)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
