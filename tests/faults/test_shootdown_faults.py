"""Shootdown delivery under faults: FaultInjector.shootdown_send.

A shootdown's relays and invalidates ride the coherence mesh
(``System._plain_send``).  Under a fault plan the injector delivers
them: routed around dead links, retried with backoff on drops and
escalated after ``max_retries``, and reported unreachable when the
target is partitioned away.
"""

import pytest

from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.noc.topology import MeshTopology
from repro.sim import configs as cfg
from repro.sim import engine
from repro.sim.engine import StormConfig, simulate
from repro.sim.system import IPI_CYCLES, System
from repro.vm.address import PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload

TILES = 16  # a 4x4 mesh


def _injector(**plan):
    topology = MeshTopology(TILES)
    return FaultInjector(FaultPlan(num_tiles=TILES, **plan), topology)


def _cut_off(tile):
    """Every link into ``tile``: nothing can reach it."""
    return tuple(
        sorted(link for link in MeshTopology(TILES).all_links()
               if link[1] == tile)
    )


def test_relay_detours_around_a_dead_link():
    """(1, 2) kills row 0's XY and YX routes from 0 to 3, so the relay
    takes the BFS detour and pays 2 x its hops + 1."""
    inj = _injector(failed_links=((1, 2),))
    detour = inj.router.route(0, 3)
    assert len(detour) == 5 > MeshTopology(TILES).hops(0, 3)
    assert inj.shootdown_send(0, 3, now=100) == 100 + 2 * 5 + 1
    assert inj.shootdown_drops == inj.shootdown_retries == 0


def test_drops_escalate_after_max_retries():
    """Every attempt drops: each retry costs the round trip plus a
    doubling backoff (capped), and after max_retries the message is
    escalated and delivered."""
    inj = _injector(arbiter_drop_prob=1.0, max_retries=4, max_backoff=4)
    cost = 2 * MeshTopology(TILES).hops(0, 15) + 1
    delivered = inj.shootdown_send(0, 15, now=50)
    assert delivered == 50 + 4 * cost + (1 + 2 + 4 + 4) + cost
    assert inj.shootdown_drops == 4
    assert inj.shootdown_retries == 4
    assert inj.shootdown_unreachable == 0


def test_partitioned_target_is_unreachable():
    inj = _injector(failed_links=_cut_off(5))
    assert inj.shootdown_send(0, 5, now=100) is None
    assert inj.shootdown_unreachable == 1
    assert inj.shootdown_drops == inj.shootdown_retries == 0
    system = System(cfg.distributed(TILES),
                    faults=FaultPlan(num_tiles=TILES,
                                     failed_links=_cut_off(5)))
    assert system._plain_send(0, 5, 100) == 100
    assert system.faults.shootdown_unreachable == 1


def test_unreachable_slice_is_still_booked_and_invalidated():
    """Pins the model as it stands (see ROADMAP "Model fixes"): the
    invalidate to a slice nobody can reach is not skipped.  It arrives
    at once, books the slice's write port for every entry, and the
    entries are dropped; the initiator waits for those bookings."""
    system = System(cfg.distributed(TILES),
                    faults=FaultPlan(num_tiles=TILES,
                                     failed_links=_cut_off(5)))
    entries = [(1, PAGE_4K, 5 + TILES * i) for i in range(8)]  # homed on 5
    for entry in entries:
        system.shared_l2.insert_page_number(*entry)
    system.apply_shootdown(0, entries, 1000)
    assert system.shared_l2.write_ports[5].cycles == {
        cycle: 1 for cycle in range(1000, 1008)
    }
    assert system.shared_l2.shards[5].occupancy == 0
    assert system.pending_penalty[0] == IPI_CYCLES + 7 == 37
    assert system.pending_penalty[1:] == [IPI_CYCLES] * (TILES - 1)
    assert system.faults.shootdown_unreachable == 1


def test_fault_free_plan_matches_the_plain_formula():
    """No dead links and no drops: the injector's delivery is the plain
    coherence-mesh cost, 2 x hops + 1, for every pair."""
    plain = System(cfg.distributed(TILES))
    faulty = System(cfg.distributed(TILES),
                    faults=FaultPlan(num_tiles=TILES, failed_slices=(3,)))
    assert plain.faults is None and faulty.faults is not None
    topology = MeshTopology(TILES)
    for src in range(TILES):
        for dst in range(TILES):
            expected = 1000 + 2 * topology.hops(src, dst) + 1
            assert plain._plain_send(src, dst, 1000) == expected
            assert faulty._plain_send(src, dst, 1000) == expected
    assert faulty.faults.summary()["shootdown_retries"] == 0


def test_storm_under_faults_is_deterministic_on_the_reference_loop(
    monkeypatch,
):
    loops = []
    for name in ("_drive_batched", "_drive_reference"):
        def spy(*args, _name=name, _real=getattr(engine, name), **kwargs):
            loops.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    workload = build_multithreaded(
        get_workload("graph500"), TILES, accesses_per_core=300, seed=5
    )
    plan = FaultPlan(
        num_tiles=TILES,
        failed_links=((1, 2),) + _cut_off(10),
        arbiter_drop_prob=0.3,
        seed=11,
    )
    storm = StormConfig(period=400, burst_entries=64)
    runs = [
        simulate(cfg.distributed(TILES), workload, storm=storm, faults=plan)
        for _ in range(2)
    ]
    assert loops == ["_drive_reference"] * 2
    assert runs[0].as_dict() == runs[1].as_dict()
    summary = runs[0].faults
    for name in ("shootdown_drops", "shootdown_retries",
                 "shootdown_unreachable"):
        assert summary[name] > 0, name
    assert runs[0].stats.shootdown_messages > 0
