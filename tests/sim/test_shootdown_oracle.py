"""Grouped shootdowns and in-place flushes against the per-entry oracle.

``System.apply_shootdown`` buckets a burst by set once per array
geometry and visits only those sets; ``flush_all_tlbs`` clears sets in
place and skips the ones that hold nothing.  The oracle below is the
algorithm they replaced (every core, entry by entry; every built set
cleared), kept here only as a test.  Two systems see the same random
mix of translations, shootdowns and flushes, one through the oracle,
and must agree after every step: each TLB set (residents in order, ARC
and 2Q ghosts, ARC's target), each array counter, each slice port
reservation and each core's pending stall.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import configs as cfg
from repro.sim.system import IPI_CYCLES, System
from repro.tlb.policies import ArcState, TwoQState
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K


def oracle_shootdown(system, initiator, entries, now):
    """The per-entry shootdown, as ``System.apply_shootdown`` was."""
    n = system.config.num_cores
    for core in range(n):
        for asid, size, page_number in entries:
            # L1Tlb.invalidate as it was: the entry's page-size array.
            system.l1s[core].array(size).invalidate(asid, size, page_number)
        system.pending_penalty[core] += IPI_CYCLES
    if system.config.scheme == cfg.PRIVATE:
        for core in range(n):
            for asid, size, page_number in entries:
                system.private_l2[core].invalidate(asid, size, page_number)
            system.pending_penalty[core] += len(entries)
        return
    shared = system.shared_l2
    homes = sorted({shared.home(pn, a) for a, _, pn in entries})
    plan = system.invalidation.plan(initiator, homes)
    system.stats.shootdown_messages += len(plan.messages)
    completion = now
    sender_done = {}
    for message in plan.messages:
        dst_tile = system.mono_tile if system._is_monolithic else message.dst
        if message.kind == "relay":
            dst_tile = message.dst
        finish = system._plain_send(message.src, dst_tile, now)
        if message.kind == "invalidate":
            per_slice = [
                e for e in entries if shared.home(e[2], e[0]) == message.dst
            ]
            for _ in range(max(1, len(per_slice))):
                finish = shared.write_ports[message.dst].reserve(finish)
        sender_done[message.src] = max(sender_done.get(message.src, now), finish)
        completion = max(completion, finish)
    for sender, done in sender_done.items():
        if sender != initiator:
            system.pending_penalty[sender] += done - now
    for asid, size, page_number in entries:
        shared.invalidate(asid, size, page_number)
    system.pending_penalty[initiator] += completion - now


def oracle_flush(system):
    """The flush as it was: clear every built set of every array."""
    for array in _arrays(system):
        for cache_set in array._sets:
            if cache_set is not None:
                cache_set.clear()
    system.stats.flushes += 1


def _arrays(system):
    arrays = [a for l1 in system.l1s for a in l1._arrays.values()]
    arrays += [l2.array for l2 in system.private_l2]
    if system.shared_l2 is not None:
        arrays += system.shared_l2.shards
    return arrays


def _set_state(cache_set):
    if isinstance(cache_set, ArcState):
        return (list(cache_set._t1), list(cache_set._t2), list(cache_set._b1),
                list(cache_set._b2), cache_set._p)
    if isinstance(cache_set, TwoQState):
        return (list(cache_set._a1in), list(cache_set._a1out),
                list(cache_set._am))
    return list(cache_set)


def snapshot(system):
    """Everything a shootdown or flush can change.  A built set equal to
    a fresh one counts as unbuilt: the oracle builds sets it probes."""
    tlbs = []
    for array in _arrays(system):
        fresh = _set_state(array._state_cls(array.ways))
        sets = {
            index: _set_state(cache_set)
            for index, cache_set in enumerate(array._sets)
            if cache_set is not None
        }
        tlbs.append((
            {index: state for index, state in sets.items() if state != fresh},
            array.hits, array.misses, array.insertions, array.evictions,
        ))
    ports = []
    if system.shared_l2 is not None:
        shared = system.shared_l2
        ports = [
            (dict(p._starts), p.conflict_cycles)
            for p in shared.read_ports + shared.write_ports
        ]
    return (
        tlbs, ports, list(system.pending_penalty), dict(vars(system.stats)),
        system.invalidation.messages_sent,
    )


CONFIGS = [
    cfg.private(4),
    cfg.private(4, policy="arc"),
    cfg.monolithic(4, policy="twoq"),
    cfg.distributed(4),
    cfg.distributed(16, policy="arc"),
    cfg.nocstar(4, policy="twoq"),
    cfg.build_config("nocstar-prio", 4),
    cfg.distributed(16, leader_granularity=1),
    cfg.nocstar(16, policy="arc", leader_granularity=4),
]

# Pages k*512 + j share a set in every array (k) and spread over sets
# and homes (j): sets overflow, so LRU evicts and ARC/2Q keep ghosts.
_PAGE = st.builds(
    lambda k, j: k * 512 + j, st.integers(0, 5), st.integers(0, 5)
)
_KEY = st.tuples(
    st.integers(0, 1), st.sampled_from([PAGE_4K, PAGE_4K, PAGE_2M, PAGE_1G]),
    _PAGE,
)
_NOW = st.integers(0, 3000)  # out of order, as the engine's quantum allows
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("translate"), st.integers(0, 15), _KEY, _NOW),
        st.tuples(
            st.just("shootdown"), st.integers(0, 15),
            st.lists(_KEY, max_size=24), _NOW,
        ),
        st.tuples(st.just("flush"), st.none(), st.none(), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(config=st.sampled_from(CONFIGS), ops=_OPS)
def test_grouped_shootdown_and_flush_match_per_entry_oracle(config, ops):
    grouped, oracle = System(config), System(config)
    n = config.num_cores
    for op, core, arg, now in ops:
        if op == "translate":
            asid, size, page_number = arg
            for system in (grouped, oracle):
                system.l2_transaction(core % n, asid, size, page_number, now)
                system.l1s[core % n].array(size).insert(asid, size, page_number)
        elif op == "shootdown":
            grouped.apply_shootdown(core % n, arg, now)
            oracle_shootdown(oracle, core % n, arg, now)
        else:
            grouped.flush_all_tlbs()
            oracle_flush(oracle)
        assert snapshot(grouped) == snapshot(oracle)


@pytest.mark.parametrize("policy", ["arc", "twoq"])
def test_history_left_by_a_shootdown_is_still_reached(policy):
    """Shooting down every resident of a set leaves its ghosts (and
    ARC's adapted target): a later shootdown and a flush must still
    clear them, although the set holds no translation."""
    grouped, oracle = (System(cfg.private(4, policy=policy)) for _ in range(2))
    keys = [(1, PAGE_4K, k * 128) for k in range(12)]  # one 8-way set
    array = grouped.private_l2[0].array
    for system in (grouped, oracle):
        l2 = system.private_l2[0]
        l2.insert_page_number(*keys[0])
        l2.lookup_page_number(*keys[0])  # ARC: into T2, so T1 ghosts
        for key in keys[1:]:
            l2.insert_page_number(*key)
    # The latest eviction is still a ghost; readmitting it is a ghost
    # hit, on which ARC adapts its target.
    ghost = [k for k in keys if not array.probe(*k)][-1]
    for system in (grouped, oracle):
        system.private_l2[0].insert_page_number(*ghost)

    def both(grouped_step, oracle_step):
        grouped_step(grouped)
        oracle_step(oracle)
        assert snapshot(grouped) == snapshot(oracle)

    residents = list(array.iter_keys())
    both(lambda s: s.apply_shootdown(0, residents, 100),
         lambda s: oracle_shootdown(s, 0, residents, 100))
    cache_set = array._sets[0]
    assert len(cache_set) == 0 and cache_set  # ghosts remain
    both(lambda s: s.apply_shootdown(1, keys, 200),
         lambda s: oracle_shootdown(s, 1, keys, 200))
    assert bool(cache_set) == (policy == "arc")  # ARC keeps its target
    both(System.flush_all_tlbs, oracle_flush)
    assert not cache_set


def test_shootdown_drops_resident_entries_everywhere():
    system = System(cfg.distributed(4))
    keys = [(1, PAGE_4K, pn) for pn in (3, 19, 35)] + [(1, PAGE_2M, 3)]
    for core in range(4):
        for asid, size, pn in keys:
            system.l1s[core].array(size).insert(asid, size, pn)
    for asid, size, pn in keys:
        system.shared_l2.insert_page_number(asid, size, pn)
    system.apply_shootdown(0, keys[1:] + keys[1:2], now=10)
    for core in range(4):
        arrays = system.l1s[core]
        assert arrays.array(PAGE_4K).probe(1, PAGE_4K, 3)
        assert arrays.array(PAGE_4K).occupancy == 1
        assert arrays.array(PAGE_2M).occupancy == 0
    shards = system.shared_l2.shards
    assert [k for shard in shards for k in shard.iter_keys()] == [
        (1, PAGE_4K, 3)
    ]
    # Slice 3 homes every entry (modulo 4): one write slot per entry
    # sent, the duplicate included.
    assert sum(system.shared_l2.write_ports[3]._starts.values()) == 4
