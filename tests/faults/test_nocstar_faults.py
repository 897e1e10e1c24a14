"""NOCSTAR resilience: bounded retry, backoff, and buffered-mesh fallback."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NocstarConfig
from repro.core.nocstar import NocstarInterconnect, NocstarTraversal
from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.faults.routing import UnreachableError
from repro.noc.mesh import COHERENCE_CYCLES_PER_HOP, COHERENCE_INJECTION_CYCLES
from repro.noc.topology import MeshTopology
from repro.obs import EventTrace, MetricsSink
from repro.sim import configs as cfg
from repro.sim.system import System
from tests.core.test_nocstar import COUNTERS


def _injector(num_tiles=16, **plan_kwargs):
    topology = MeshTopology(num_tiles)
    plan = FaultPlan(num_tiles=num_tiles, **plan_kwargs)
    return topology, FaultInjector(plan, topology)


def test_benign_plan_keeps_the_fault_free_send_path():
    # Slice failures and walker slowdowns never touch the interconnect:
    # the System hands its fabric no injector, so every send takes the
    # fault-free arbitration.
    plan = FaultPlan(num_tiles=16, failed_slices=(3,), walker_slowdown=2.0)
    system = System(cfg.nocstar(16), faults=plan)
    assert system.faults is not None
    noc = system.network
    assert noc.faults is None
    plain = System(cfg.nocstar(16)).network
    for src, dst, now in ((0, 15, 5), (3, 12, 40), (7, 7, 41)):
        assert noc.send(src, dst, now) == plain.send(src, dst, now)


def test_dead_xy_link_falls_back_immediately():
    topology, injector = _injector(failed_links=((1, 2),))
    noc = NocstarInterconnect(topology, faults=injector)
    traversal = noc.send(0, 3, now=10)  # XY path 0>1>2>3 crosses 1>2
    fallback_path = injector.router.route(0, 3)
    assert fallback_path is not None and (1, 2) not in fallback_path
    assert traversal.links == ()  # no circuit held
    assert traversal.hops == len(fallback_path)
    assert traversal.ready == (
        11  # earliest = now + 1 (non-speculative setup)
        + COHERENCE_INJECTION_CYCLES
        + COHERENCE_CYCLES_PER_HOP * len(fallback_path)
    )
    assert injector.fallback_messages == 1
    assert injector.fallback_hops == len(fallback_path)


def test_certain_drops_hit_the_setup_timeout_then_fall_back():
    topology, injector = _injector(
        arbiter_drop_prob=1.0, setup_timeout=16, seed=5
    )
    noc = NocstarInterconnect(topology, faults=injector)
    traversal = noc.send(0, 3, now=0)
    assert injector.arbiter_drops > 0  # backed off through real drops
    assert injector.fallback_messages == 1
    assert traversal.links == ()
    # Gave up no earlier than the deadline, then paid buffered-mesh cost.
    assert traversal.ready >= 1 + 16 + COHERENCE_INJECTION_CYCLES


def test_transient_drops_retry_with_backoff_then_deliver():
    topology, injector = _injector(arbiter_drop_prob=0.5, seed=3)
    noc = NocstarInterconnect(topology, faults=injector)
    plain = NocstarInterconnect(topology)
    xy = tuple(topology.xy_path(0, 15))
    dropped = delivered = 0
    for i in range(40):
        now = i * 50
        traversal = noc.send(0, 15, now, hold=True)
        baseline = plain.send(0, 15, now, hold=True)
        assert traversal.hops == baseline.hops
        assert traversal.links == baseline.links == xy  # circuit still held
        noc.release(traversal.links, traversal.ready)
        plain.release(baseline.links, baseline.ready)
        if traversal.ready == baseline.ready:
            delivered += 1
        else:
            dropped += 1
            assert traversal.ready > baseline.ready  # backoff only adds
    assert delivered > 0 and dropped > 0
    assert injector.arbiter_drops > 0
    assert injector.fallback_messages == 0  # drops resolved within timeout


def test_fallback_to_a_partitioned_destination_raises():
    # Tile 0 loses both out-links: XY is dead and no fallback route
    # exists.  The system pre-checks reachability and degrades, so the
    # interconnect treats this as a protocol bug, loudly.
    topology, injector = _injector(failed_links=((0, 1), (0, 4)))
    noc = NocstarInterconnect(topology, faults=injector)
    with pytest.raises(UnreachableError):
        noc.send(0, 3, now=0)


def test_faulty_send_counts_energy_and_messages_like_the_seed_path():
    topology, injector = _injector(failed_links=((8, 9),))
    noc = NocstarInterconnect(topology, faults=injector)
    # A message whose XY path avoids the dead link follows the normal
    # accounting: one uncontended setup, hops charged once.
    traversal = noc.send(0, 3, now=0)
    assert traversal.setup_retries == 0
    assert noc.messages == 1
    assert noc.uncontended_messages == 1
    assert noc.control_requests == traversal.hops
    assert noc.total_hops == traversal.hops


class CycleByCycleNocstar(NocstarInterconnect):
    """The faulty send as it was before it shared the fault-free setup
    search: contention retried one cycle at a time through
    ``_path_free``.  Kept verbatim, only as the oracle below, save that
    it reads the path from the topology and its hops and mask from the
    arithmetic legs, and returns the path only when it holds the
    circuit."""

    def send(self, src, dst, now, speculative_setup=False, hold=False):
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return NocstarTraversal(
                ready=now, hops=0, setup_retries=0, traversal_cycles=0, links=()
            )
        inj = self.faults
        x_offset, x_hops, y_offset, y_hops = self._legs(src, dst)
        mask = (
            self._ones[x_hops] << x_offset | self._ones[y_hops] << y_offset
        )
        hops = x_hops + y_hops
        duration = self.traversal_cycles(hops)
        path = tuple(self.topology.xy_path(src, dst))
        earliest = now if speculative_setup else now + 1
        if not inj.router.path_alive(path):
            return self._fallback(src, dst, earliest, hops, attempts=1)
        deadline = earliest + inj.plan.setup_timeout
        start = earliest
        attempts = 0
        drops = 0
        backoff = 1
        while True:
            if start >= deadline:
                return self._fallback(src, dst, start, hops, attempts)
            attempts += 1
            if not self._path_free(path, mask, start, duration):
                start += 1  # contention: retry next cycle, as fault-free
                continue
            if inj.drop_setup():
                drops += 1
                inj.record_drop(start, src, dst, backoff)
                start += backoff
                backoff = min(backoff * 2, inj.plan.max_backoff)
                continue
            break
        retries = attempts - 1
        self._reserve(
            mask, start, duration, hops, retries, path if hold else ()
        )
        self.sink.event(
            now, "nocstar_setup",
            src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            drops=drops,
        )
        return NocstarTraversal(
            start + duration, hops, retries, duration, path if hold else ()
        )

    def _path_free(self, path, mask, start, duration):
        """True if every link is free for [start, start+duration)."""
        if self._held_mask & mask:
            self._police_holds(path, start + duration)
        busy_at = self._busy.get
        for cycle in range(start, start + duration):
            if busy_at(cycle, 0) & mask:
                return False
        return True


@settings(max_examples=120, deadline=None)
@given(
    tiles=st.sampled_from((4, 12, 16)),
    busy=st.lists(  # (first cycle, cycles, link) runs of one busy link
        st.tuples(st.integers(0, 90), st.integers(1, 24), st.integers(0, 999)),
        max_size=60,
    ),
    drop_prob=st.sampled_from((0.0, 0.3, 1.0)),
    setup_timeout=st.integers(1, 40),
    max_backoff=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    hpc_max=st.sampled_from((1, 2, 16)),
    sends=st.lists(  # (src, dst, now, speculative, hold, release)
        st.tuples(
            st.integers(0, 15), st.integers(0, 15), st.integers(0, 60),
            st.booleans(), st.booleans(), st.booleans(),
        ),
        min_size=1, max_size=30,
    ),
)
def test_faulty_send_search_matches_cycle_by_cycle_retries(
    tiles, busy, drop_prob, setup_timeout, max_backoff, seed, hpc_max, sends
):
    """The faulty send's jump search charges one failed attempt per busy
    cycle it skips, exactly as retrying cycle by cycle did: over a drawn
    busy calendar and drawn sends, both give the same traversals
    (ready time, retries, fallbacks), counters, drops, fallback hops,
    trace events, bookings, holds and drop-draw RNG state.  Round-trip
    holds that are left unreleased make both raise on the same sends."""
    topology = MeshTopology(tiles)
    plan = FaultPlan(
        num_tiles=tiles, arbiter_drop_prob=drop_prob,
        setup_timeout=setup_timeout, max_backoff=max_backoff, seed=seed,
    )
    nets = []
    for cls in (NocstarInterconnect, CycleByCycleNocstar):
        sink = MetricsSink(trace=EventTrace())
        injector = FaultInjector(plan, topology, sink=sink)
        net = cls(topology, NocstarConfig(hpc_max=hpc_max), sink=sink,
                  faults=injector)
        for first, cycles, link in busy:
            bit = 1 << (link % len(net._links))
            for cycle in range(first, first + cycles):
                net._busy[cycle] = net._busy.get(cycle, 0) | bit
        nets.append(net)
    new, old = nets
    for src, dst, now, speculative, hold, release in sends:
        src, dst = src % tiles, dst % tiles
        outcomes = []
        for net in nets:
            try:
                sent = net.send(src, dst, now, speculative, hold)
            except RuntimeError:  # a crossed hold
                sent = RuntimeError
            else:
                if release:
                    net.release(sent.links, sent.ready)
            outcomes.append(sent)
        assert outcomes[0] == outcomes[1]
    for name in COUNTERS:
        assert getattr(new, name) == getattr(old, name), name
    assert new.faults.summary() == old.faults.summary()
    assert new.faults.rng.getstate() == old.faults.rng.getstate()
    assert new.sink.trace.to_records() == old.sink.trace.to_records()
    assert new.sink.registry.snapshot() == old.sink.registry.snapshot()
    assert new._busy == old._busy
    assert new._held == old._held
    assert new._held_mask == old._held_mask


@pytest.mark.parametrize("cls", (NocstarInterconnect, CycleByCycleNocstar))
@pytest.mark.parametrize("now, raises", ((0, False), (1, True)))
def test_setup_timing_out_behind_a_hold_is_policed_at_its_last_attempt(
    cls, now, raises
):
    """A setup that times out behind an unreleased round-trip hold
    raises when its last attempt (the cycle before the deadline) would
    end past the hold, as a cycle-by-cycle retry did, and falls back
    when it would not."""
    topology, injector = _injector(setup_timeout=1)
    noc = cls(topology, NocstarConfig(hpc_max=1), faults=injector)
    held = noc.send(0, 3, 0, speculative_setup=True, hold=True)
    assert (held.ready, held.traversal_cycles) == (3, 3)  # held from 3
    if raises:
        with pytest.raises(RuntimeError, match="unreleased round-trip"):
            noc.send(0, 3, now, speculative_setup=True)
    else:
        fallback = noc.send(0, 3, now, speculative_setup=True)
        assert (fallback.links, fallback.setup_retries) == ((), 1)
