"""Shared L2 organisations: banked monolithic and distributed slices."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import sram
from repro.tlb.l2_shared import (
    PREFETCH_CLASS,
    PRIORITY,
    SHOOTDOWN_CLASS,
    WALK_CLASS,
    DistributedSharedTlb,
    MonolithicSharedTlb,
    _PortSet,
)
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K


def test_distributed_total_capacity():
    tlb = DistributedSharedTlb(16, 1024)
    assert tlb.total_entries == 16 * 1024
    assert tlb.num_shards == 16


def test_home_uses_low_order_bits():
    tlb = DistributedSharedTlb(16, 1024)
    for pn in (0, 1, 15, 16, 31):
        assert tlb.home(pn) == pn % 16


def test_slice_lookup_latency_is_small_array():
    tlb = DistributedSharedTlb(32, 1024)
    assert tlb.lookup_cycles == sram.lookup_cycles(1024)


def test_nocstar_area_normalised_slice():
    tlb = DistributedSharedTlb(16, 920)
    assert tlb.entries_per_shard == 920
    assert tlb.lookup_cycles <= 9


def test_monolithic_latency_follows_total_capacity():
    mono16 = MonolithicSharedTlb(16 * 1024)
    mono64 = MonolithicSharedTlb(64 * 1024, num_banks=8)
    assert mono64.lookup_cycles > mono16.lookup_cycles
    # Fig 4: the 32x structure with zero-latency interconnect ~16cc.
    mono32 = MonolithicSharedTlb(32 * 1024)
    assert 15 <= mono32.lookup_cycles <= 17


def test_banks_for_matches_paper():
    assert MonolithicSharedTlb.banks_for(16) == 4
    assert MonolithicSharedTlb.banks_for(32) == 4
    assert MonolithicSharedTlb.banks_for(64) == 8


def test_insert_and_lookup_route_to_same_shard():
    tlb = DistributedSharedTlb(8, 64, ways=4)
    tlb.insert_page_number(1, PAGE_4K, 100)
    assert tlb.lookup_page_number(1, PAGE_4K, 100)
    assert tlb.shards[100 % 8].occupancy == 1


def test_single_copy_no_replication():
    """The shared structure holds one copy regardless of who inserts."""
    tlb = DistributedSharedTlb(8, 64, ways=4)
    for _ in range(5):
        tlb.insert_page_number(1, PAGE_4K, 100)
    assert sum(s.occupancy for s in tlb.shards) == 1


def test_1g_not_cached():
    tlb = DistributedSharedTlb(8, 64, ways=4)
    assert tlb.insert_page_number(1, PAGE_1G, 0) is None
    assert not tlb.lookup_page_number(1, PAGE_1G, 0)


def test_probe_has_no_side_effects():
    tlb = DistributedSharedTlb(8, 64, ways=4)
    assert not tlb.probe_page_number(1, PAGE_4K, 5)
    assert tlb.misses == 0


def test_invalidate_routes_by_home():
    tlb = DistributedSharedTlb(8, 64, ways=4)
    tlb.insert_page_number(1, PAGE_4K, 42)
    assert tlb.invalidate(1, PAGE_4K, 42)
    assert not tlb.probe_page_number(1, PAGE_4K, 42)


def test_flush():
    tlb = DistributedSharedTlb(4, 64, ways=4)
    for pn in range(20):
        tlb.insert_page_number(1, PAGE_4K, pn)
    assert tlb.flush() == 20


def test_read_port_pipelining():
    """Two ports: three same-cycle accesses -> third slips one cycle."""
    tlb = DistributedSharedTlb(4, 64, ways=4)
    starts = [tlb.reserve_read(0, 100) for _ in range(3)]
    assert sorted(starts) == [100, 100, 101]


def test_write_port_single():
    tlb = DistributedSharedTlb(4, 64, ways=4)
    starts = [tlb.reserve_write(0, 100) for _ in range(2)]
    assert sorted(starts) == [100, 101]


def test_ports_are_per_shard():
    tlb = DistributedSharedTlb(4, 64, ways=4)
    assert tlb.reserve_read(0, 100) == 100
    assert tlb.reserve_read(1, 100) == 100


def test_out_of_order_reservation_allowed():
    """A later call may reserve an earlier free cycle (engine run-ahead)."""
    tlb = DistributedSharedTlb(4, 64, ways=4)
    tlb.reserve_read(0, 500)
    assert tlb.reserve_read(0, 100) == 100


def test_reserve_many_counts_sweep():
    tlb = DistributedSharedTlb(4, 64, ways=4)
    last = tlb.write_ports[0].reserve_many(10, 5)
    assert last == 14  # five back-to-back single-port writes


@settings(max_examples=80)
@given(
    num_ports=st.integers(1, 3),
    priority=st.booleans(),
    busy=st.lists(st.integers(0, 40), max_size=60),
    sweeps=st.lists(
        st.tuples(
            st.integers(0, 40),
            st.integers(0, 12),
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(0, 2)), max_size=4
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_reserve_many_equals_chained_reserves(
    num_ports, priority, busy, sweeps
):
    """A sweep is ``count`` class-0 reserves, each starting where the
    last one did: same starts, same last cycle, same conflict cycles.
    Repeated sweeps from scattered arrivals, into runs earlier sweeps
    filled and with plain reserves of any class in between, agree
    too."""
    sweep, chained = (_PortSet(num_ports, priority) for _ in range(2))
    for cycle in busy:
        sweep.reserve(cycle)
        chained.reserve(cycle)
    for now, count, between in sweeps:
        last = now
        for _ in range(count):
            last = chained.reserve(last)
        assert sweep.reserve_many(now, count) == last
        assert sweep._starts == chained._starts
        assert sweep.conflict_cycles == chained.conflict_cycles
        for cycle, klass in between:
            assert sweep.reserve(cycle, klass) == chained.reserve(cycle, klass)


def test_entries_must_divide():
    with pytest.raises(ValueError):
        MonolithicSharedTlb(1000, num_banks=3)


def test_index_shift_spreads_consecutive_pages():
    """Consecutive page numbers land on different slices AND use
    distinct sets within a slice across strides."""
    tlb = DistributedSharedTlb(4, 64, ways=4)  # 4 slices, 16 sets each
    for pn in range(64):
        tlb.insert_page_number(1, PAGE_4K, pn)
    # 64 consecutive pages = 16 per slice; all should be resident
    # because the index shift avoids piling them into one set.
    assert sum(s.occupancy for s in tlb.shards) == 64


# ---------------------------------------------------------------------------
# priority arbitration (shootdown > walk > prefetch service classes)


def _prio(num_slices=4):
    return DistributedSharedTlb(num_slices, 64, ways=4, arbitration=PRIORITY)


def test_arbitration_mode_validated():
    with pytest.raises(ValueError, match="arbitration"):
        DistributedSharedTlb(4, 64, ways=4, arbitration="lottery")


def test_priority_uncontended_matches_fifo():
    """An uncontended access pays nothing regardless of class."""
    fifo = DistributedSharedTlb(4, 64, ways=4)
    prio = _prio()
    for klass in (SHOOTDOWN_CLASS, WALK_CLASS, PREFETCH_CLASS):
        now = 100 + 10 * klass
        assert prio.reserve_read(0, now, klass) == fifo.reserve_read(0, now, klass) == now


def test_priority_class0_contention_matches_fifo():
    """Shootdown-class traffic arbitrates exactly like historical FIFO."""
    fifo = DistributedSharedTlb(4, 64, ways=4)
    prio = _prio()
    fifo_starts = [fifo.reserve_write(0, 50, SHOOTDOWN_CLASS) for _ in range(3)]
    prio_starts = [prio.reserve_write(0, 50, SHOOTDOWN_CLASS) for _ in range(3)]
    assert fifo_starts == prio_starts == [50, 51, 52]


def test_priority_contended_walk_pays_class_penalty():
    prio = _prio()
    assert prio.reserve_write(0, 100, SHOOTDOWN_CLASS) == 100
    # The walk lost to the shootdown: +1 busy scan, +WALK_CLASS yield.
    assert prio.reserve_write(0, 100, WALK_CLASS) == 101 + WALK_CLASS


def test_priority_contended_prefetch_pays_more_than_walk():
    walk_side = _prio()
    prefetch_side = _prio()
    walk_side.reserve_write(0, 100)
    prefetch_side.reserve_write(0, 100)
    walk = walk_side.reserve_write(0, 100, WALK_CLASS)
    prefetch = prefetch_side.reserve_write(0, 100, PREFETCH_CLASS)
    assert prefetch - walk == PREFETCH_CLASS - WALK_CLASS


def test_priority_penalised_access_reskips_busy_cycles():
    """After yielding, the loser takes the next genuinely free cycle."""
    prio = _prio()
    prio.reserve_write(0, 100)
    prio.reserve_write(0, 102)  # occupies the cycle the penalty lands on
    assert prio.reserve_write(0, 100, WALK_CLASS) == 103


def test_fifo_mode_ignores_class_entirely():
    fifo = DistributedSharedTlb(4, 64, ways=4)
    fifo.reserve_write(0, 100)
    assert fifo.reserve_write(0, 100, PREFETCH_CLASS) == 101


def test_policy_threads_through_to_shards():
    tlb = DistributedSharedTlb(4, 64, ways=4, policy="arc")
    assert tlb.policy == "arc"
    assert all(shard.policy == "arc" for shard in tlb.shards)
    mono = MonolithicSharedTlb(256, num_banks=4, ways=4, policy="twoq")
    assert all(bank.policy == "twoq" for bank in mono.shards)


@settings(max_examples=80)
@given(
    num_ports=st.integers(1, 3),
    priority=st.booleans(),
    ops=st.lists(
        st.tuples(
            st.integers(0, 10),  # frontier advance
            st.integers(0, 30),  # the access's lead over the frontier
            st.integers(0, 2),  # service class; a sweep when count > 0
            st.integers(0, 8),  # sweep length (0: a single reserve)
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_retiring_behind_the_frontier_changes_no_reservation(
    num_ports, priority, ops
):
    """Retiring every start below a non-decreasing frontier, with each
    reservation and sweep at or after it, gives the starts and conflict
    cycles of a port set that never retires, and keeps exactly the
    starts (and skip entries) at or above the frontier."""
    retiring, kept = (_PortSet(num_ports, priority) for _ in range(2))
    frontier = 0
    for advance, lead, klass, count in ops:
        frontier += advance
        retiring.retire(frontier)
        now = frontier + lead
        if count:
            got = retiring.reserve_many(now, count)
            assert got == kept.reserve_many(now, count)
        else:
            assert retiring.reserve(now, klass) == kept.reserve(now, klass)
        assert retiring.conflict_cycles == kept.conflict_cycles
    retiring.retire(frontier)
    assert retiring._starts == {
        cycle: n for cycle, n in kept._starts.items() if cycle >= frontier
    }
    assert all(cycle >= frontier for cycle in retiring._skip)

