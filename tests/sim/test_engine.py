"""Engine mechanics: trace consumption, storms, SMT, determinism."""

import gc
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import canonical_json
from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import (
    REFERENCE_ENV,
    ShootdownTraffic,
    StormConfig,
    WatchdogExpired,
    simulate,
)
from repro.sim.system import System
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.workloads.trace import Workload, interleave_streams


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


def test_storms_a_jump_crosses_are_bunched_and_late_ones_never_fire():
    """Pins a known modelling quirk (ROADMAP, "Model fixes"): the
    reference loop fires at most one storm per heap pop, so the storms
    a core's 10,000-cycle jump crosses come one per later pop, and those
    still pending when the last core drains never fire.  The 11,167-cycle
    run fires 2 storms where its 116-cycle period implies 96.  A fix
    changes RunResults, so it waits for the next ``ENGINE_VERSION``."""
    wl = Workload(
        "storm-bunching",
        [[[(9, 1, PAGE_4K, 1000), (10_000, 1, PAGE_4K, 2000),
           (300, 1, PAGE_4K, 3000)]]],
        seed=0, superpages=False,
    )
    result = simulate(
        replace(cfg.distributed(1), ptw_fixed=100), wl,
        storm=StormConfig(period=116),
    )
    assert result.cycles == 11_167
    assert result.cycles // 116 == 96
    assert result.stats.flushes == 2


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


#: Two set indices, six pages deep: more pages per set than any L1
#: array has ways (the 1GB array is one 4-way set), so drawn streams
#: hit, evict and miss again on pages they touched before.
PAGE_POOL = tuple(j + 16 * k for j in (0, 1) for k in range(6))

_records = st.tuples(
    # Gaps 0-40, half of them 0-2: dense records put misses on quantum
    # boundaries while other cores are due in the same few cycles,
    # where a loop that takes a miss early reorders the transactions.
    st.one_of(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=40),
    ),
    st.sampled_from((1, 2)),  # asid
    st.sampled_from((PAGE_4K, PAGE_2M, PAGE_1G)),
    st.sampled_from(PAGE_POOL),
)


@st.composite
def drawn_workloads(draw):
    """1-6 cores, SMT 1-2, 0-60 records per stream (so some cores have
    none), gaps 0-40."""
    cores = draw(st.integers(min_value=1, max_value=6), label="cores")
    smt = draw(st.integers(min_value=1, max_value=2), label="smt")
    traces = []
    for _ in range(cores):
        streams = []
        for _ in range(smt):
            # Length first, so long streams are as likely as short ones.
            n = draw(st.integers(min_value=0, max_value=60))
            streams.append(draw(st.lists(_records, min_size=n, max_size=n)))
        traces.append(streams)
    return Workload("drawn", traces, seed=0, superpages=True)


def _counters(array):
    return array.hits, array.misses, array.insertions, array.evictions


@settings(max_examples=60, deadline=None)
@given(workload=drawn_workloads())
def test_compiled_prefix_sums_are_int64_and_every_miss_reads_them(workload):
    """``_compile_core`` writes the running sum of ``gap + 1`` into an
    ``array('q')``, and each L1 miss, found by replaying the merged
    stream through fresh L1 arrays with lookup and insert, carries the
    sums before and through its record.  It adds that replay's hits,
    misses, insertions and evictions to each array's counters, returns
    them, and builds none of the arrays' sets."""
    compiled = System(cfg.private(workload.num_cores)).l1s
    replayed = System(cfg.private(workload.num_cores)).l1s
    for core in range(workload.num_cores):
        streams = workload.core_streams(core)
        merged = interleave_streams(streams)
        l1 = compiled[core]
        cc, counted = engine._compile_core(
            streams, {size: l1.array(size) for size in l1._arrays}
        )
        assert cc.prefix.typecode == "q"
        assert list(cc.prefix) == list(
            accumulate((gap + 1 for gap, *_ in merged), initial=0)
        )
        assert cc.total == cc.prefix[-1]
        misses = []
        for m, (_, asid, size, page_number) in enumerate(merged):
            if not replayed[core].array(size).lookup(asid, size, page_number):
                replayed[core].array(size).insert(asid, size, page_number)
                misses.append(
                    (cc.prefix[m], cc.prefix[m + 1], (asid, size, page_number))
                )
        assert cc.misses == misses + [engine._NO_MISS]
        for size, (hits, missed, evictions) in counted:
            assert _counters(l1.array(size)) == (
                hits, missed, missed, evictions
            )
        for size in l1._arrays:
            array = l1.array(size)
            assert _counters(array) == _counters(replayed[core].array(size))
            assert array._sets == [None] * array.num_sets


@settings(max_examples=30, deadline=None)
@given(workload=drawn_workloads())
def test_batched_runs_leave_every_l1_set_unbuilt(workload):
    """A batched ``simulate`` counts L1 hits and misses without building
    any of its System's L1 sets, on the first compile and on a compile
    cache hit alike, and both runs give the same bytes."""
    systems, compiles = [], []
    real_finalize = System.finalize_stats
    real_compile = engine._compile_core

    def finalize(self):
        systems.append(self)
        return real_finalize(self)

    def compile_core(*args):
        compiles.append(args)
        return real_compile(*args)

    config = cfg.distributed(workload.num_cores)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(REFERENCE_ENV, raising=False)
        mp.setattr(System, "finalize_stats", finalize)
        mp.setattr(engine, "_compile_core", compile_core)
        first = canonical_json(simulate(config, workload))
        assert len(compiles) == workload.num_cores
        second = canonical_json(simulate(config, workload))
        assert len(compiles) == workload.num_cores  # a cache hit
    assert first == second
    assert len(systems) == 2
    for system in systems:
        for l1 in system.l1s:
            for size in l1._arrays:
                array = l1.array(size)
                assert array._sets == [None] * array.num_sets


def _both_loops(config, workload, **kwargs):
    """Run one case under each engine; returns, per run, the result (or
    the ``WatchdogExpired`` message) with every L2 transaction in call
    order, plus the drive loops that ran."""
    loops = []

    def spy(name):
        real = getattr(engine, name)

        def wrapper(*args, **kw):
            loops.append(name)
            return real(*args, **kw)

        return wrapper

    real_transaction = System.l2_transaction

    def transaction(self, *args):
        stall = real_transaction(self, *args)
        calls.append(args + (stall,))
        return stall

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_drive_batched", "_drive_reference"):
            mp.setattr(engine, name, spy(name))
        mp.setattr(System, "l2_transaction", transaction)
        for reference in (False, True):
            if reference:
                mp.setenv(REFERENCE_ENV, "1")
            else:
                mp.delenv(REFERENCE_ENV, raising=False)
            calls = []
            try:
                outcome = canonical_json(simulate(config, workload, **kwargs))
            except WatchdogExpired as exc:
                outcome = str(exc)
            outcomes.append((outcome, calls))
    return outcomes, loops


@settings(max_examples=60, deadline=None)
@given(
    workload=drawn_workloads(),
    quantum=st.sampled_from((1, 2, 3, 5, 64, 256, 100_000)),
    name=st.sampled_from(
        ("private", "distributed", "nocstar", "monolithic-smart")
    ),
)
def test_batched_loop_matches_the_reference_loop(workload, quantum, name):
    """The batched loop's miss-to-miss scheduling (one comparison per
    pop, a bisect only on quantum expiry) gives the reference loop's
    bytes, and makes its L2 transactions in the same order at the same
    cycles, at every quantum, with zero gaps, empty streams, SMT and
    L1 evictions."""
    (batched, reference), loops = _both_loops(
        cfg.build_config(name, workload.num_cores), workload,
        quantum=quantum,
    )
    assert loops == ["_drive_batched", "_drive_reference"]
    assert batched == reference


def test_both_loops_trip_the_watchdog_alike():
    """A run past its watchdog raises from the same core at the same
    cycle under either loop."""
    (batched, reference), loops = _both_loops(
        cfg.nocstar(4), tiny_workload(num_cores=4, accesses=200, stride=3),
        quantum=5, watchdog_cycles=700,
    )
    assert loops == ["_drive_batched", "_drive_reference"]
    assert "past the 700-cycle watchdog" in batched[0]
    assert batched[1]
    assert batched == reference
