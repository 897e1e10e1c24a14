"""Page-walk latency model and walker queueing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK, EventTrace, MetricsSink
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import (
    FixedLatencyWalker,
    PageTableWalker,
    WalkerQueue,
    WalkResult,
    _first_vpn,
    _observe_walk,
)

from tests.vm.test_page_table import ChainPageTable


def make_walker(cores=2):
    table = PageTable()
    return PageTableWalker(table, CacheHierarchy(cores), cores)


def test_first_walk_misses_everywhere():
    walker = make_walker()
    result = walker.walk(0, 1, PAGE_4K, 1000, now=0)
    assert result.levels.count("dram") >= 1
    assert result.latency >= 250  # at least one DRAM trip


def test_repeat_walk_is_much_cheaper():
    walker = make_walker()
    cold = walker.walk(0, 1, PAGE_4K, 1000, now=0)
    warm = walker.walk(0, 1, PAGE_4K, 1000, now=10)
    assert warm.latency < cold.latency
    assert warm.latency <= 20  # PWC + L1 hits


def test_neighbour_walk_reuses_upper_levels():
    walker = make_walker()
    walker.walk(0, 1, PAGE_4K, 1000, now=0)
    neighbour = walker.walk(0, 1, PAGE_4K, 1001, now=10)
    # Upper levels hit the PWC; only the leaf can go far.
    assert neighbour.levels[:3] == ("pwc", "pwc", "pwc")


def test_2m_walk_touches_three_levels():
    walker = make_walker()
    result = walker.walk(0, 1, PAGE_2M, 5, now=0)
    assert len(result.levels) == 3


def test_walks_counted():
    walker = make_walker()
    walker.walk(0, 1, PAGE_4K, 1, 0)
    walker.walk(0, 1, PAGE_4K, 2, 0)
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
    for i, (core, size, page_number) in enumerate(
        [(0, PAGE_4K, 1000), (1, PAGE_4K, 1000), (0, PAGE_4K, 1001),
         (0, PAGE_2M, 5), (1, PAGE_4K, 1000)]
    ):
        latency = full.walk(core, 1, size, page_number, now=10 * i).latency
        assert lean.walk_cycles(core, 1, size, page_number, now=10 * i) == latency
    assert sinks[0].trace.to_records() == sinks[1].trace.to_records()
    assert sinks[0].registry.snapshot() == sinks[1].registry.snapshot()
    assert full.walks == lean.walks == 5
    if not fixed:
        assert full.level_hits == lean.level_hits


def test_pwc_is_per_core():
    walker = make_walker(cores=2)
    walker.walk(0, 1, PAGE_4K, 1000, now=0)
    other_core = walker.walk(1, 1, PAGE_4K, 1001, now=10)
    assert other_core.levels[0] != "pwc"  # core 1's PWC is cold


def test_pollution_counts_non_l1_fills():
    walker = make_walker()
    cold = walker.walk(0, 1, PAGE_4K, 1000, now=0)
    assert cold.pollution >= 1
    warm = walker.walk(0, 1, PAGE_4K, 1000, now=5)
    assert warm.pollution == 0


def test_steady_state_walk_latency_band():
    """After warmup, distinct-page walks should cost ~30-150 cycles
    (LLC-class references dominating), not always-DRAM."""
    walker = make_walker()
    for vpn in range(0, 2048, 8):
        walker.walk(0, 1, PAGE_4K, vpn, now=vpn * 10)
    lat = [
        walker.walk(0, 1, PAGE_4K, vpn, now=21000 + vpn).latency
        for vpn in range(0, 2048, 64)
    ]
    mean = sum(lat) / len(lat)
    assert 10 <= mean <= 300  # bounded by one leaf DRAM trip + overhead


def test_fixed_walker_constant():
    walker = FixedLatencyWalker(PageTable(), 40)
    for vpn in (1, 100, 999):
        assert walker.walk(0, 1, PAGE_4K, vpn, 0).latency == 40
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
        walker.walk_cycles(0, 1, page_size, 1000, now=0)
    with pytest.raises(ValueError, match="unsupported page size"):
        walker.page_table.walk_info(1, page_size, 1000)
    assert walker.walks == 0 and walker.page_table.walk_memo == {}


@pytest.mark.parametrize("page_size", [0, 8192, PAGE_4K + 1])
def test_fixed_walker_rejects_unsupported_page_size(page_size):
    walker = FixedLatencyWalker(PageTable(), 20)
    for walk in (walker.walk, walker.walk_cycles):
        with pytest.raises(ValueError, match="unsupported page size"):
            walk(0, 1, page_size, 1000, now=0)
    assert walker.walks == 0 and walker.page_table.pages_mapped == 0


class ChainFixedWalker(FixedLatencyWalker):
    """``FixedLatencyWalker`` as it was before a fixed walk was one
    page-table call (kept verbatim as the oracle): ``_first_vpn``, then
    ``PageTable.lookup`` -> ``map_page`` -> ``translation_vpn`` ->
    ``page_shift``, plus ``walk_addresses`` on a first touch; run on a
    ``ChainPageTable``, whose ``map_page`` is that chain."""

    def walk(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> WalkResult:
        vpn = _first_vpn(size, page_number)
        self.walks += 1
        pte = self.page_table.lookup(asid, vpn, size)
        _observe_walk(self.sink, core, vpn, now, self.latency)
        return WalkResult(latency=self.latency, pte=pte, levels=("fixed",))

    def walk_cycles(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        vpn = _first_vpn(size, page_number)
        self.walks += 1
        self.page_table.lookup(asid, vpn, size)
        _observe_walk(self.sink, core, vpn, now, self.latency)
        return self.latency


fixed_walks = st.lists(
    st.tuples(
        st.sampled_from(("walk", "walk_cycles", "walk_info")),
        st.integers(min_value=0, max_value=1),  # core
        st.sampled_from((1, 2)),  # asid
        # 8192 is unsupported: both walkers must refuse it uncounted.
        st.sampled_from((PAGE_4K, PAGE_2M, PAGE_1G, 8192)),
        st.one_of(
            st.integers(min_value=0, max_value=3 * 512),
            st.integers(min_value=0, max_value=(1 << 36) - 1),
        ),
    ),
    min_size=1,
    max_size=50,
)


def _table_state(table):
    return (
        table._next_frame, table.nodes_allocated, table.pages_mapped,
        table.walk_memo, table._ptes, table._nodes, table._chains,
    )


@settings(max_examples=150, deadline=None)
@given(ops=fixed_walks, observed=st.booleans())
def test_fixed_walker_matches_the_call_chain(ops, observed):
    """One ``map_translation`` call per fixed walk allocates the same
    frames in the same order as the old chain, interleaved with the
    variable walker's first touches on the same table, and returns the
    same latencies and PTEs, counts the same walks and gives the sink
    the same samples and events (with the same ``vpn``)."""
    sinks = [
        MetricsSink(trace=EventTrace()) if observed else NULL_SINK
        for _ in range(2)
    ]
    walker = FixedLatencyWalker(PageTable(), 20, sink=sinks[0])
    oracle = ChainFixedWalker(ChainPageTable(), 20, sink=sinks[1])
    for now, (op, core, asid, size, page_number) in enumerate(ops):
        outcomes = []
        for w in (walker, oracle):
            try:
                if op == "walk_info":
                    # The variable walker's first touch: nodes first.
                    if w is walker:
                        got = w.page_table.walk_info(asid, size, page_number)
                    else:
                        got = w.page_table.walk_info(
                            asid, _first_vpn(size, page_number), size
                        )
                else:
                    got = getattr(w, op)(core, asid, size, page_number, now)
            except ValueError as exc:
                got = str(exc)
            outcomes.append(got)
        assert outcomes[0] == outcomes[1]
        assert walker.walks == oracle.walks
        assert _table_state(walker.page_table) == _table_state(
            oracle.page_table
        )
    if observed:
        assert sinks[0].trace.to_records() == sinks[1].trace.to_records()
        assert sinks[0].registry.snapshot() == sinks[1].registry.snapshot()


def test_fixed_rewalk_is_one_page_table_call(monkeypatch):
    """A re-walk of a mapped page reaches the page table through one
    ``map_translation`` call and nothing else."""
    table = PageTable()
    walker = FixedLatencyWalker(table, 20)
    walker.walk_cycles(0, 1, PAGE_4K, 77, now=0)
    calls = []
    for name in ("map_translation", "map_page", "lookup", "walk_addresses",
                 "walk_info", "_node_chain"):
        real = getattr(table, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(table, name, spy)
    assert walker.walk_cycles(0, 1, PAGE_4K, 77, now=5) == 20
    assert calls == ["map_translation"]
