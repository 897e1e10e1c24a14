"""The one per-cycle booking store, against a brute-force scan."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.occupancy import Bookings


class ScanBookings:
    """Per-cycle start counts searched one cycle at a time, with no
    skip map: the oracle for :class:`Bookings`."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.cycles = {}
        self.retired = 0

    def full(self, cycle):
        return self.cycles.get(cycle, 0) >= self.capacity

    def first_free(self, cycle):
        while self.full(cycle):
            cycle += 1
        return cycle

    def first_window(self, cycle, duration):
        while any(self.full(cycle + i) for i in range(duration)):
            cycle += 1
        return cycle

    def book(self, cycle, duration):
        for booked in range(cycle, cycle + duration):
            self.cycles[booked] = self.cycles.get(booked, 0) + 1

    def retire(self, horizon):
        dropped = [cycle for cycle in self.cycles if cycle < horizon]
        for cycle in dropped:
            del self.cycles[cycle]
        self.retired += len(dropped)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 3),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("book", "first_free", "first_window", "retire")),
            st.integers(0, 6),  # frontier advance (retire)
            st.integers(0, 30),  # the call's lead over the frontier
            st.integers(1, 5),  # window length
        ),
        min_size=1,
        max_size=120,
    ),
)
def test_every_call_matches_the_per_cycle_scan(capacity, ops):
    """Random bookings, searches and retirements behind a non-decreasing
    frontier: every search finds the cycle the scan finds, no cycle
    ever holds more than ``capacity`` starts, the store keeps exactly
    the scan's bookings at or above the frontier, its skip map only
    crosses full cycles, and ``busy_cycles`` counts retired cycles
    exactly."""
    store, scan = Bookings(capacity), ScanBookings(capacity)
    frontier = 0
    for op, advance, lead, duration in ops:
        now = frontier + lead
        if op == "retire":
            frontier += advance
            store.retire(frontier)
            scan.retire(frontier)
        elif op == "first_free":
            assert store.first_free(now) == scan.first_free(now)
        elif op == "first_window":
            got = store.first_window(now, duration)
            assert got == scan.first_window(now, duration)
        else:
            start = store.first_window(now, duration)
            assert start == scan.first_window(now, duration)
            store.book(start, duration)
            scan.book(start, duration)
        assert store.cycles == scan.cycles
        assert all(n <= capacity for n in store.cycles.values())
        assert store.busy_cycles == len(scan.cycles) + scan.retired
        for cycle, to in store.skip.items():  # every skipped cycle full
            assert all(scan.full(c) for c in range(cycle, to))
    assert all(cycle >= frontier for cycle in store.skip)


def test_a_full_run_is_crossed_through_the_skip_map():
    store = Bookings(2)
    for _ in range(2):
        store.book(10, 5)  # cycles 10..14 full
    assert store.first_free(10) == 15
    assert store.skip == {cycle: 15 for cycle in range(10, 15)}
    assert store.first_window(8, 3) == 15  # 8..9 is one cycle short
    assert store.first_window(8, 2) == 8


def test_retiring_counts_dropped_cycles_and_keeps_the_dicts():
    store = Bookings()
    cycles, skip = store.cycles, store.skip
    store.book(0, 4)
    store.first_free(0)
    store.retire(2)
    assert store.cycles is cycles and store.skip is skip
    assert cycles == {2: 1, 3: 1}
    assert skip == {2: 4, 3: 4}
    assert (store.retired, store.busy_cycles) == (2, 4)
    store.retire(2)  # nothing below the horizon: nothing changes
    assert store.retired == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="at least one access"):
        Bookings(0)
