"""Page-walk latency model and walker queueing."""

import pytest

from repro.mem.cache import CacheHierarchy
from repro.obs import EventTrace, MetricsSink
from repro.vm.address import PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker, WalkerQueue


def make_walker(cores=2):
    table = PageTable()
    return PageTableWalker(table, CacheHierarchy(cores), cores)


def test_first_walk_misses_everywhere():
    walker = make_walker()
    result = walker.walk(0, 1, 1000, PAGE_4K, now=0)
    assert result.levels.count("dram") >= 1
    assert result.latency >= 250  # at least one DRAM trip


def test_repeat_walk_is_much_cheaper():
    walker = make_walker()
    cold = walker.walk(0, 1, 1000, PAGE_4K, now=0)
    warm = walker.walk(0, 1, 1000, PAGE_4K, now=10)
    assert warm.latency < cold.latency
    assert warm.latency <= 20  # PWC + L1 hits


def test_neighbour_walk_reuses_upper_levels():
    walker = make_walker()
    walker.walk(0, 1, 1000, PAGE_4K, now=0)
    neighbour = walker.walk(0, 1, 1001, PAGE_4K, now=10)
    # Upper levels hit the PWC; only the leaf can go far.
    assert neighbour.levels[:3] == ("pwc", "pwc", "pwc")


def test_2m_walk_touches_three_levels():
    walker = make_walker()
    result = walker.walk(0, 1, 512 * 5, PAGE_2M, now=0)
    assert len(result.levels) == 3


def test_walks_counted():
    walker = make_walker()
    walker.walk(0, 1, 1, PAGE_4K, 0)
    walker.walk(0, 1, 2, PAGE_4K, 0)
    assert walker.walks == 2


@pytest.mark.parametrize("fixed", [False, True])
def test_walk_cycles_matches_walk_with_the_sink_enabled(fixed):
    """The latency-only walk keeps every side effect of ``walk``: the
    caches, PWCs and counters, and the sink's observation and events,
    in the same order."""
    walkers, sinks = [], []
    for _ in range(2):
        sink = MetricsSink(trace=EventTrace())
        table = PageTable()
        if fixed:
            walker = FixedLatencyWalker(table, 20, sink=sink)
        else:
            walker = PageTableWalker(table, CacheHierarchy(2), 2, sink=sink)
        walkers.append(walker)
        sinks.append(sink)
    full, lean = walkers
    for i, (core, vpn, size) in enumerate(
        [(0, 1000, PAGE_4K), (1, 1000, PAGE_4K), (0, 1001, PAGE_4K),
         (0, 512 * 5, PAGE_2M), (1, 1000, PAGE_4K)]
    ):
        latency = full.walk(core, 1, vpn, size, now=10 * i).latency
        assert lean.walk_cycles(core, 1, vpn, size, now=10 * i) == latency
    assert sinks[0].trace.to_records() == sinks[1].trace.to_records()
    assert sinks[0].registry.snapshot() == sinks[1].registry.snapshot()
    assert full.walks == lean.walks == 5
    if not fixed:
        assert full.level_hits == lean.level_hits


def test_pwc_is_per_core():
    walker = make_walker(cores=2)
    walker.walk(0, 1, 1000, PAGE_4K, now=0)
    other_core = walker.walk(1, 1, 1001, PAGE_4K, now=10)
    assert other_core.levels[0] != "pwc"  # core 1's PWC is cold


def test_pollution_counts_non_l1_fills():
    walker = make_walker()
    cold = walker.walk(0, 1, 1000, PAGE_4K, now=0)
    assert cold.pollution >= 1
    warm = walker.walk(0, 1, 1000, PAGE_4K, now=5)
    assert warm.pollution == 0


def test_steady_state_walk_latency_band():
    """After warmup, distinct-page walks should cost ~30-150 cycles
    (LLC-class references dominating), not always-DRAM."""
    walker = make_walker()
    for vpn in range(0, 2048, 8):
        walker.walk(0, 1, vpn, PAGE_4K, now=vpn * 10)
    lat = [
        walker.walk(0, 1, vpn, PAGE_4K, now=21000 + vpn).latency
        for vpn in range(0, 2048, 64)
    ]
    mean = sum(lat) / len(lat)
    assert 10 <= mean <= 300  # bounded by one leaf DRAM trip + overhead


def test_fixed_walker_constant():
    walker = FixedLatencyWalker(PageTable(), 40)
    for vpn in (1, 100, 999):
        assert walker.walk(0, 1, vpn, PAGE_4K, 0).latency == 40
    assert walker.walks == 3


def test_fixed_walker_rejects_nonpositive():
    with pytest.raises(ValueError):
        FixedLatencyWalker(PageTable(), 0)


def test_queue_idle_walk_starts_immediately():
    queue = WalkerQueue()
    assert queue.admit(100, 30) == 130
    assert queue.queued_walks == 0


def test_queue_two_walkers_run_concurrently():
    queue = WalkerQueue(num_walkers=2)
    assert queue.admit(0, 50) == 50
    assert queue.admit(0, 50) == 50  # second walker
    assert queue.queued_walks == 0


def test_queue_third_walk_waits():
    queue = WalkerQueue(num_walkers=2)
    queue.admit(0, 50)
    queue.admit(0, 50)
    done = queue.admit(0, 50)
    assert done == 100
    assert queue.queued_walks == 1
    assert queue.total_queue_cycles == 50


def test_queue_rejects_zero_walkers():
    with pytest.raises(ValueError):
        WalkerQueue(num_walkers=0)


def test_queue_busy_until_tracks_latest():
    queue = WalkerQueue(num_walkers=2)
    queue.admit(0, 10)
    queue.admit(0, 80)
    assert queue.busy_until == 80


@pytest.mark.parametrize("page_size", [0, 8192, PAGE_4K + 1])
def test_unsupported_page_size_raises_value_error(page_size):
    walker = make_walker()
    with pytest.raises(ValueError, match="unsupported page size"):
        walker.walk_cycles(0, 1, 1000, page_size, now=0)
    with pytest.raises(ValueError, match="unsupported page size"):
        walker.page_table.walk_info(1, 1000, page_size)
    assert walker.walks == 0 and walker.page_table.walk_memo == {}
