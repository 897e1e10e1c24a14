"""System model: translation paths, shootdowns, energy plumbing."""

import gc
import weakref

import pytest

from repro.faults.models import FaultPlan
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.obs import NULL_SINK, MetricsSink
from repro.sim import configs as cfg
from repro.sim.engine import REFERENCE_ENV
from repro.sim.system import System
from repro.vm.address import PAGE_4K


def test_private_hit_costs_visible_lookup():
    system = System(cfg.private(4))
    system.private_l2[0].insert_page_number(1, PAGE_4K, 100)
    stall = system.l2_transaction(0, 1, PAGE_4K, 100, now=0)
    visible = int(9 * (1 - cfg.private(4).translation_overlap))
    assert stall == visible
    assert system.stats.l2_hits == 1


def test_private_miss_walks():
    system = System(cfg.private(4))
    stall = system.l2_transaction(0, 1, PAGE_4K, 100, now=0)
    assert system.stats.l2_misses == 1
    assert system.stats.walks == 1
    assert stall > 9  # lookup + walk
    # Mostly-inclusive: the L2 now holds the translation.
    assert system.private_l2[0].lookup_page_number(1, PAGE_4K, 100)


def test_shared_hit_fills_from_home_slice():
    system = System(cfg.nocstar(4))
    home = system.shared_l2.home(100)
    system.shared_l2.insert_page_number(1, PAGE_4K, 100)
    stall = system.l2_transaction(0, 1, PAGE_4K, 100, now=0)
    assert system.stats.l2_hits == 1
    assert stall >= int(9 * 0.55)


def test_local_slice_access_cheaper_than_remote():
    system = System(cfg.nocstar(4, translation_overlap=0.0))
    local_pn = 0  # home slice = core 0
    remote_pn = 3
    system.shared_l2.insert_page_number(1, PAGE_4K, local_pn)
    system.shared_l2.insert_page_number(1, PAGE_4K, remote_pn)
    local = system.l2_transaction(0, 1, PAGE_4K, local_pn, now=100)
    remote = system.l2_transaction(0, 1, PAGE_4K, remote_pn, now=200)
    assert local < remote


def test_shared_miss_requester_policy_fills_slice():
    system = System(cfg.nocstar(4))
    system.l2_transaction(0, 1, PAGE_4K, 99, now=0)
    assert system.stats.l2_misses == 1
    assert system.shared_l2.probe_page_number(1, PAGE_4K, 99)


def test_remote_walk_charges_pollution_to_home_core():
    config = cfg.nocstar(4, ptw_policy=cfg.PTW_REMOTE)
    system = System(config)
    pn = 3  # homed on core 3
    system.l2_transaction(0, 1, PAGE_4K, pn, now=0)
    assert system.pending_penalty[3] > 0
    assert system.pending_penalty[0] == 0


def test_monolithic_uses_edge_tile_and_ingress():
    no_overlap = dict(translation_overlap=0.0)
    mono = System(cfg.monolithic(16, **no_overlap))
    ideal = System(cfg.ideal(16, **no_overlap))
    mono.shared_l2.insert_page_number(1, PAGE_4K, 5)
    ideal.shared_l2.insert_page_number(1, PAGE_4K, 5)
    assert mono.l2_transaction(0, 1, PAGE_4K, 5, 0) > ideal.l2_transaction(
        0, 1, PAGE_4K, 5, 0
    )


def test_fixed_latency_monolithic():
    system = System(cfg.monolithic(16, fixed_latency=25,
                                   translation_overlap=0.0))
    system.shared_l2.insert_page_number(1, PAGE_4K, 5)
    stall = system.l2_transaction(0, 1, PAGE_4K, 5, now=0)
    assert stall == 25
    assert system.network is None


def test_nocstar_ideal_never_retries():
    system = System(cfg.nocstar_ideal(16))
    for pn in range(50):
        system.shared_l2.insert_page_number(1, PAGE_4K, pn)
        system.l2_transaction(0, 1, PAGE_4K, pn, now=0)
    assert system.network.total_setup_retries == 0


def test_nocstar_ideal_fill_arbitrates_on_the_real_fabric():
    """NOCSTAR(ideal)'s request and response legs take the contention-
    free formula, but the requester's fill still sets up a circuit on
    the real fabric: it books link cycles and control requests.  Pinned
    as the current behaviour (see DESIGN.md, "Engine fast path")."""
    system = System(cfg.nocstar_ideal(16, translation_overlap=0.0))
    network = system.network
    pn = 5  # homed on tile 5, two hops from core 0
    hops = system.topology.hops(0, pn)
    assert hops == 2
    stall = system.l2_transaction(0, 1, PAGE_4K, pn, now=0)  # miss
    walk_done = stall  # no overlap: the stall ends at the walk
    # Request and miss reply by formula, the fill by arbitration.
    assert network.messages == 3
    assert network.total_hops == 3 * hops
    assert network.control_requests == hops  # one won setup, no retry
    cycles = network.traversal_cycles(hops)
    assert sorted(network._busy) == list(
        range(walk_done + 1, walk_done + 1 + cycles)
    )
    # A hit never arbitrates: two formula legs, no booking.
    system.l2_transaction(0, 1, PAGE_4K, pn, now=5000)
    assert network.messages == 5
    assert network.control_requests == hops
    assert len(network._busy) == cycles


def test_flush_all_tlbs():
    system = System(cfg.nocstar(4))
    system.l2_transaction(0, 1, PAGE_4K, 7, now=0)
    l1 = system.l1s[0].array(PAGE_4K)
    l1.insert(1, PAGE_4K, 7)
    system.flush_all_tlbs()
    assert system.stats.flushes == 1
    assert not system.shared_l2.probe_page_number(1, PAGE_4K, 7)
    assert not l1.probe(1, PAGE_4K, 7)


def test_shootdown_private_invalidates_everywhere():
    system = System(cfg.private(4))
    for core in range(4):
        system.private_l2[core].insert_page_number(1, PAGE_4K, 55)
    system.apply_shootdown(0, [(1, PAGE_4K, 55)], now=100)
    for core in range(4):
        assert not system.private_l2[core].lookup_page_number(1, PAGE_4K, 55)
        assert system.pending_penalty[core] > 0


def test_shootdown_shared_removes_translation_and_charges_initiator():
    system = System(cfg.nocstar(8))
    system.shared_l2.insert_page_number(1, PAGE_4K, 55)
    system.apply_shootdown(2, [(1, PAGE_4K, 55)], now=100)
    assert not system.shared_l2.probe_page_number(1, PAGE_4K, 55)
    assert system.stats.shootdown_messages >= 1
    assert system.pending_penalty[2] > system.pending_penalty[1]


def test_naive_shootdown_floods():
    flood = System(cfg.nocstar(8, leader_granularity=1))
    lead = System(cfg.nocstar(8, leader_granularity=8))
    flood.apply_shootdown(0, [(1, PAGE_4K, 55)], now=0)
    lead.apply_shootdown(0, [(1, PAGE_4K, 55)], now=0)
    assert flood.stats.shootdown_messages > lead.stats.shootdown_messages


def test_static_power_ordering():
    """Shared organisations carry router/switch overheads; NOCSTAR's
    interconnect overhead is small next to mesh routers."""
    private = System(cfg.private(16)).static_power_mw()
    nocstar = System(cfg.nocstar(16)).static_power_mw()
    dist = System(cfg.distributed(16)).static_power_mw()
    assert nocstar < dist  # 920e slices + mux switches vs routers
    assert private < dist


def test_energy_summary_has_components():
    system = System(cfg.nocstar(4))
    system.l2_transaction(0, 1, PAGE_4K, 9, now=0)
    system.finalize_stats()
    energy = system.energy_summary(cycles=1000)
    assert energy["total"] > 0
    assert energy["walk"] > 0
    assert energy["static"] > 0


def test_timeline_capture():
    timeline = []
    system = System(cfg.nocstar(16), timeline=timeline)
    system.shared_l2.insert_page_number(1, PAGE_4K, 5)
    system.l2_transaction(0, 1, PAGE_4K, 5, now=0)
    kinds = [k for k, _, _ in timeline]
    assert "request-network" in kinds
    assert "slice-lookup" in kinds
    assert "response-network" in kinds


def test_interval_recording():
    system = System(cfg.nocstar(4), record_intervals=True)
    system.l2_transaction(0, 1, PAGE_4K, 5, now=0)
    assert len(system.intervals) == 1
    start, end, home = system.intervals[0]
    assert end > start
    assert home == system.shared_l2.home(5)


@pytest.mark.parametrize(
    "config",
    [
        cfg.private(4, prefetch_distances=(1,)),
        cfg.distributed(4, prefetch_distances=(1,)),
        cfg.nocstar_ideal(4),
        cfg.build_config("monolithic-smart", 4),
    ],
    ids=lambda config: config.name,
)
def test_system_is_freed_without_the_cycle_collector(config):
    """The transaction closures bind the structures, never the System,
    so a finished run's machine is freed at once rather than at the
    next cyclic collection (which let lineups hold several 64-core
    machines alive at a time)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system = System(config)
        system.l2_transaction(0, 1, PAGE_4K, 5, now=0)
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize(
    "name", ["monolithic", "monolithic-smart", "distributed"]
)
def test_system_picks_the_one_router_its_network_sends_on(name, observed):
    """Dead links hand the mesh or SMART model the fault injector's
    router; any other faults, or none, the shared fault-free tables.
    Each network keeps its one send.  Only the legs of a mesh that is
    unobserved and on the tables are timed from the hop rows."""
    config = cfg.build_config(name, 16)
    sink = MetricsSink() if observed else NULL_SINK
    dead = System(
        config, sink=sink, faults=FaultPlan(16, failed_links=((1, 2),))
    )
    drops = System(
        config, sink=sink, faults=FaultPlan(16, arbiter_drop_prob=0.5)
    )
    plain = System(config, sink=sink)
    routes = shared_route_cache(16)
    assert plain.routes is drops.routes is dead.routes is routes
    assert dead.network.router is dead.faults.router
    assert drops.network.router is plain.network.router is plain.routes
    for system in (dead, drops, plain):
        network = system.network
        assert network.send.__func__ is type(network).send
        if isinstance(network, SmartNetwork):
            assert network._route == network.router.path
        inlined = (
            isinstance(network, ContentionFreeMesh)
            and network.router is system.routes
            and not observed
        )
        assert system.mesh_hop_rows is (
            system.routes.hops if inlined else None
        )


@pytest.mark.parametrize(
    "ideal, plan, falls_back",
    [
        (False, FaultPlan(16, failed_links=((12, 13),), setup_timeout=1), True),
        (False, FaultPlan(16, failed_slices=(3,), setup_timeout=1), False),
        (False, FaultPlan(16, walker_slowdown=2.0, setup_timeout=1), False),
        (True, FaultPlan(16, failed_links=((12, 13),), setup_timeout=1), False),
    ],
    ids=["dead-link", "dead-slice", "slow-walker", "ideal-dead-link"],
)
def test_only_faults_that_reach_a_link_time_nocstar_setups_out(
    ideal, plan, falls_back
):
    """A setup one cycle behind contention outlives a one-cycle setup
    timeout.  With a dead link anywhere, NOCSTAR arbitrates through
    faults and falls back to the coherence mesh; dead slices and slow
    walkers, or the idealised fabric, keep the fault-free arbitration,
    which waits for the links."""
    config = cfg.nocstar_ideal(16) if ideal else cfg.nocstar(16)
    system = System(config, faults=plan)
    network = system.network
    assert network.send(0, 3, 10).ready == 12
    second = network.send(0, 3, 10)
    assert system.faults.fallback_messages == int(falls_back)
    if not falls_back:
        assert (second.ready, second.setup_retries) == (13, 1)


def _routing(system):
    """What the reference switch must not change: the route tables, the
    network's router and send function, and the leg-inlining decision."""
    network = system.network
    send = getattr(network, "send", None)
    return (
        system.routes,
        getattr(network, "router", None),
        getattr(send, "__func__", send),
        system.mesh_hop_rows,
    )


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize(
    "name",
    [
        "private", "monolithic", "monolithic-smart", "monolithic-16cc",
        "distributed", "distributed-bus", "distributed-fbfly-wide",
        "nocstar", "nocstar-ideal", "ideal",
    ],
)
def test_reference_switch_changes_no_route_or_send(
    name, observed, monkeypatch
):
    """``REPRO_REFERENCE_ENGINE=1`` picks the drive loop and nothing
    else: both settings build a System on the same route tables, router,
    network send and leg-inlining decision."""
    if name == "monolithic-16cc":
        config = cfg.monolithic(16, fixed_latency=16)
    else:
        config = cfg.build_config(name, 16)
    sink = MetricsSink() if observed else NULL_SINK
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    fast = _routing(System(config, sink=sink))
    monkeypatch.setenv(REFERENCE_ENV, "1")
    reference = _routing(System(config, sink=sink))
    assert fast[0] is shared_route_cache(16)
    for ours, theirs in zip(fast, reference):
        assert ours is theirs
