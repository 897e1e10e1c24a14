"""Retiring reservation bookings behind the drive loop's frontier.

Both drive loops call ``System.retire(horizon)`` each time their
frontier advances ``engine.RETIRE_WINDOW`` cycles, and every store that
grows with run length drops its bookings below the horizon.  No later
probe may reach a dropped cycle, so a retiring run must equal one that
never retires, counters and per-link busy totals included, while
keeping only about a window of bookings alive.
"""

import pytest

from repro.exec.cache import canonical_json
from repro.noc.smart import SmartNetwork
from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import (
    DEFAULT_QUANTUM,
    REFERENCE_ENV,
    StormConfig,
    simulate,
)
from repro.sim.system import System
from repro.vm.address import PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.microbench import storm_config_for
from repro.workloads.registry import get_workload
from repro.workloads.trace import Workload

#: A window no test run reaches: the run never retires.
NEVER = 10**12
#: The engine's own window (tests monkeypatch the module's).
WINDOW = engine.RETIRE_WINDOW


class _Recorder:
    """Captures every System built and every horizon it retires at."""

    def __init__(self, monkeypatch):
        self.systems = []
        self.horizons = []
        recorder = self
        real_retire = System.retire

        class Recorded(System):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorder.systems.append(self)

            def retire(self, horizon):
                recorder.horizons.append(horizon)
                real_retire(self, horizon)

        monkeypatch.setattr(engine, "System", Recorded)

    def run(self, monkeypatch, window, *args, **kwargs):
        """One simulate() with ``window``; returns its result, System
        and horizons."""
        monkeypatch.setattr(engine, "RETIRE_WINDOW", window)
        self.horizons = []
        result = simulate(*args, **kwargs)
        return result, self.systems[-1], self.horizons


def _ports(system):
    return system.shared_l2.read_ports + system.shared_l2.write_ports


def test_only_stores_that_grow_are_retired():
    assert System(cfg.private(4)).retirable == []
    # A contention-free mesh books nothing, an ideal run has no
    # network, and NOCSTAR keeps its cycle masks: only ports retire.
    for config in (cfg.distributed(4), cfg.ideal(4), cfg.nocstar(4)):
        system = System(config)
        assert system.retirable == _ports(system)
    for name in (
        "monolithic-smart", "distributed-bus", "distributed-fbfly-wide"
    ):
        system = System(cfg.build_config(name, 4))
        assert system.retirable == _ports(system) + [system.network]


def test_a_private_run_never_retires(monkeypatch):
    recorder = _Recorder(monkeypatch)
    workload = build_multithreaded(
        get_workload("gups"), 4, accesses_per_core=300, seed=1
    )
    _, _, horizons = recorder.run(monkeypatch, 1, cfg.private(4), workload)
    assert horizons == []


def test_a_storm_the_frontier_jumped_past_keeps_its_write_port_cycles(
    monkeypatch,
):
    """The reference loop fires a storm at its own cycle when a core's
    jump crosses it, below the popped frontier, so the horizon stops at
    the next storm.

    One core on one slice, with 100-cycle walks: the first miss (cycle
    10) fills the slice's write port at cycle 119 and resumes at 114.
    The next record jumps the core past cycle 10,000, and the storm at
    116 fires on that pop: its 512-entry sweep starts at 117 and must
    find 119 booked.  A horizon of the popped frontier alone would have
    retired 119, and the run would end a cycle earlier.
    """
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    recorder = _Recorder(monkeypatch)
    config = cfg.distributed(1, ptw_fixed=100)
    workload = Workload(
        "crossing",
        [[[
            (9, 1, PAGE_4K, 7),
            (10_000, 1, PAGE_4K, 8),
            (300, 1, PAGE_4K, 9),
        ]]],
        seed=0,
        superpages=False,
    )
    _, plain, _ = recorder.run(monkeypatch, NEVER, config, workload)
    assert 119 in plain.shared_l2.write_ports[0]._starts
    storm = StormConfig(period=116)
    kept, _, _ = recorder.run(
        monkeypatch, NEVER, config, workload, storm=storm
    )
    retired, _, horizons = recorder.run(
        monkeypatch, 1, config, workload, storm=storm
    )
    assert canonical_json(retired) == canonical_json(kept)
    # The crossing pop retired below the storm, not below its frontier.
    assert horizons[:2] == [114, 116]


def _smart_run():
    workload = build_multithreaded(
        get_workload("graph500"), 16, accesses_per_core=1500, seed=3
    )
    return (cfg.build_config("monolithic-smart", 16), workload), {}


def _storm_run():
    graph500 = get_workload("graph500")
    workload = build_multithreaded(
        graph500, 16, accesses_per_core=1500, seed=3
    )
    storm = storm_config_for(1500, mean_gap=graph500.mean_gap)
    return (cfg.distributed(16), workload), {"storm": storm}


def _stores(system):
    """Every retirable store's booked cycles, in a fixed order."""
    stores = [set(ports._starts) for ports in _ports(system)]
    stores += [set(cycles) for cycles in getattr(
        system.network, "_occupied", {}
    ).values()]
    return stores


@pytest.mark.parametrize(
    "make", [_smart_run, _storm_run], ids=["smart", "storm"]
)
def test_a_retiring_run_keeps_one_window_and_exact_totals(make, monkeypatch):
    """A 16-core monolithic-SMART run and a 16-core storm run give the
    bytes, conflict cycles and per-link busy totals of a twin that never
    retires.  At finalize each store holds exactly the twin's bookings
    at or above the last horizon, which lies within a window and a
    quantum of the run's end: under a tenth of the twin's entries stay
    live."""
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    recorder = _Recorder(monkeypatch)
    args, kwargs = make()
    kept, twin, _ = recorder.run(monkeypatch, NEVER, *args, **kwargs)
    retired, system, horizons = recorder.run(
        monkeypatch, WINDOW, *args, **kwargs
    )
    assert canonical_json(retired) == canonical_json(kept)
    assert [p.conflict_cycles for p in _ports(system)] == [
        p.conflict_cycles for p in _ports(twin)
    ]
    if isinstance(system.network, SmartNetwork):
        busy = system.network.link_busy_cycles()
        assert busy == twin.network.link_busy_cycles()
        assert sum(busy.values()) == sum(
            len(cycles) for cycles in twin.network._occupied.values()
        )
    last = horizons[-1]
    assert last > retired.cycles - WINDOW - DEFAULT_QUANTUM
    live = total = 0
    for got, full in zip(_stores(system), _stores(twin)):
        assert got == {cycle for cycle in full if cycle >= last}
        live += len(got)
        total += len(full)
    assert live * 10 < total
