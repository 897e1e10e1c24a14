"""The SMT interleave against a record-at-a-time round-robin oracle.

Both engine drive loops issue a core's records in the order
``interleave_streams`` materialises, so a fault there would move both
loops together and the differential harness could not see it.  The
oracle below is the round-robin the reference loop used to step
record by record, kept here only as a test.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import configs as cfg
from repro.sim.engine import StormConfig, simulate
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_4K
from repro.workloads.trace import Workload, interleave_streams


class RoundRobinOracle:
    """One core's SMT streams, one record per stream per turn."""

    def __init__(self, streams) -> None:
        self.streams = streams
        self.positions = [0] * len(streams)
        self.rr = 0

    def next_record(self):
        """Round-robin across SMT streams; None when all are drained."""
        n = len(self.streams)
        for _ in range(n):
            s = self.rr % n
            self.rr += 1
            pos = self.positions[s]
            if pos < len(self.streams[s]):
                self.positions[s] = pos + 1
                return self.streams[s][pos]
        return None

    def drain(self):
        records = []
        while (record := self.next_record()) is not None:
            records.append(record)
        return records


def _streams(lengths):
    """Streams of the given lengths whose records are all distinct."""
    return [
        [(s, 1, PAGE_4K, 1000 * s + i) for i in range(length)]
        for s, length in enumerate(lengths)
    ]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=4))
def test_interleave_matches_the_round_robin_oracle(lengths):
    streams = _streams(lengths)
    assert interleave_streams(streams) == RoundRobinOracle(streams).drain()


def test_a_single_stream_is_returned_as_is():
    (stream,) = streams = _streams([5])
    assert interleave_streams(streams) is stream


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=4))
def test_reference_loop_probes_in_the_oracle_order(lengths):
    """A storm run takes the reference loop; its L1 probes on an SMT core
    follow the oracle's order record for record."""
    streams = _streams(lengths)
    workload = Workload("smt", [streams], seed=0, superpages=False)
    probes = []
    lookup = SetAssociativeTLB.lookup

    def spy(self, asid, page_size, page_number):
        if self.name.startswith("l1"):
            probes.append(page_number)
        return lookup(self, asid, page_size, page_number)

    with mock.patch.object(SetAssociativeTLB, "lookup", spy):
        simulate(
            cfg.private(1), workload,
            storm=StormConfig(period=50, burst_entries=4), quantum=16,
        )
    expected = RoundRobinOracle(streams).drain()
    assert probes == [record[3] for record in expected]
