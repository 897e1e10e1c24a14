"""Policy zoo proofs: byte-match against independent reference oracles.

Three equivalence suites, per the replacement-policy contract:

* refactored ``policy="lru"`` vs the verbatim seed ``set_assoc.py``
  copy (:class:`SeedSetAssociativeTLB`) — random probe/insert/lookup/
  invalidate/flush sequences, including the full-set same-ASID
  way-quota eviction edge case;
* :class:`~repro.tlb.policies.ArcState` vs :class:`ArcOracle` (FAST
  '03 pseudocode on plain lists) — full internal state compared after
  every step, ghosts and the adaptation target ``p`` included;
* :class:`~repro.tlb.policies.TwoQState` vs :class:`TwoQOracle` (VLDB
  '94 pseudocode) — ditto, A1out ghost FIFO included.
"""

import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.tlb.policies import (
    ArcState,
    LruState,
    TwoQState,
    make_policy,
    POLICY_NAMES,
)
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_2M, PAGE_4K

from tests.tlb._policy_oracles import (
    ArcOracle,
    SeedSetAssociativeTLB,
    TwoQOracle,
)


# ---------------------------------------------------------------------------
# registry sanity


def test_registry_names_sorted_and_complete():
    assert POLICY_NAMES == ("arc", "lru", "twoq")


def test_make_policy_unknown_name():
    with pytest.raises(KeyError, match="unknown policy"):
        make_policy("belady", 4)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_make_policy_builds_each(name):
    state = make_policy(name, 4)
    assert state.name == name
    assert len(state) == 0
    assert not state
    assert list(state.members()) == []


# ---------------------------------------------------------------------------
# lru == the seed array, byte for byte

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["lookup", "insert", "probe", "invalidate", "invalidate_asid",
             "flush", "shootdown"]
        ),
        st.integers(min_value=0, max_value=3),      # asid
        st.sampled_from([PAGE_4K, PAGE_2M]),        # page size
        st.integers(min_value=0, max_value=40),     # page number
    ),
    max_size=300,
)


def _drive_pair(new, seed, ops):
    """Replay one op sequence on both arrays, asserting step equality."""
    for op, asid, size, page in ops:
        if op == "lookup":
            assert new.lookup(asid, size, page) == seed.lookup(asid, size, page)
        elif op == "insert":
            assert new.insert(asid, size, page) == seed.insert(asid, size, page)
        elif op == "probe":
            assert new.probe(asid, size, page) == seed.probe(asid, size, page)
        elif op == "invalidate":
            assert new.invalidate(asid, size, page) == seed.invalidate(
                asid, size, page
            )
        elif op == "invalidate_asid":
            assert new.invalidate_asid(asid) == seed.invalidate_asid(asid)
        elif op == "shootdown":
            # A burst over every set and ASID, with one duplicate: grouped
            # by set on the new array, one key at a time on the seed.
            burst = [
                (a, size, p) for a in range(4) for p in range(page, page + 8)
            ]
            burst.append(burst[0])
            assert new.invalidate_grouped(new.group(burst)) == sum(
                seed.invalidate(*key) for key in burst
            )
        else:
            assert new.flush() == seed.flush()
        # Byte-identity after every step: order, counters, occupancy.
        assert list(new.iter_keys()) == list(seed.iter_keys())
    assert (new.hits, new.misses, new.insertions, new.evictions) == (
        seed.hits, seed.misses, seed.insertions, seed.evictions
    )
    assert new.occupancy == seed.occupancy
    assert new.accesses == seed.accesses


@settings(max_examples=60)
@given(_OPS)
def test_lru_matches_seed_behaviour(ops):
    _drive_pair(
        SetAssociativeTLB(16, 4, policy="lru"),
        SeedSetAssociativeTLB(16, 4),
        ops,
    )


@settings(max_examples=40)
@given(_OPS)
def test_lru_matches_seed_with_way_quota(ops):
    """QoS quota path, including the full-set same-ASID eviction edge."""
    new = SetAssociativeTLB(8, 4, policy="lru")
    seed = SeedSetAssociativeTLB(8, 4)
    new.way_quota = seed.way_quota = 2
    _drive_pair(new, seed, ops)


def test_lru_full_set_same_asid_quota_edge():
    """All ways held by one ASID at quota: victim is that ASID's LRU."""
    new = SetAssociativeTLB(4, 4, policy="lru")
    seed = SeedSetAssociativeTLB(4, 4)
    new.way_quota = seed.way_quota = 4
    for tlb in (new, seed):
        for page in range(4):
            tlb.insert(7, PAGE_4K, page)
    assert new.insert(7, PAGE_4K, 99) == seed.insert(7, PAGE_4K, 99) == (
        7, PAGE_4K, 0
    )
    assert list(new.iter_keys()) == list(seed.iter_keys())
    assert new.evictions == seed.evictions == 1


def test_lru_state_is_a_slotted_dict_in_lru_order():
    """``LruState`` is a dict whose only other state is its ``ways``
    slot: no instance dict, the size of a plain dict of the same keys
    plus that slot, and iteration runs LRU -> MRU through hits, admits,
    removes and full-set evictions.  Dict equality ignores order, so
    states compare as lists."""
    state = LruState(4)
    assert isinstance(state, dict)
    assert not hasattr(state, "__dict__")
    k = [(1, PAGE_4K, page) for page in range(6)]
    for key in k[:4]:
        assert state.admit(key) is None
    assert sys.getsizeof(state) == (
        sys.getsizeof(dict.fromkeys(k[:4])) + struct.calcsize("P")
    )
    assert list(state) == k[:4]
    state.touch(k[1])
    assert list(state) == [k[0], k[2], k[3], k[1]]
    assert state.admit(k[4]) == k[0]  # full: the LRU key goes
    assert list(state) == [k[2], k[3], k[1], k[4]]
    assert state.remove(k[3]) and not state.remove(k[3])
    assert list(state) == [k[2], k[1], k[4]]
    assert state.admit(k[5]) is None  # room again
    state.touch(k[2])
    assert list(state) == [k[1], k[4], k[5], k[2]]
    assert state.admit(k[0]) == k[1]
    assert list(state) == list(state.members()) == [k[4], k[5], k[2], k[0]]
    assert state == dict.fromkeys(reversed(list(state)))  # order-blind


# ---------------------------------------------------------------------------
# arc / twoq == the papers' pseudocode

_KEYS = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.just(PAGE_4K),
    st.integers(min_value=0, max_value=9),
)

_POLICY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), _KEYS),
        st.tuples(st.just("remove"), _KEYS),
        st.tuples(st.just("remove_many"), st.frozensets(_KEYS, max_size=6)),
        st.tuples(st.just("purge"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=200,
)


def _oracle_purge_arc(oracle, asid):
    dropped = sum(1 for k in oracle.t1 + oracle.t2 if k[0] == asid)
    for lst in (oracle.t1, oracle.t2, oracle.b1, oracle.b2):
        lst[:] = [k for k in lst if k[0] != asid]
    return dropped


def _oracle_purge_twoq(oracle, asid):
    dropped = sum(1 for k in oracle.a1in + oracle.am if k[0] == asid)
    for lst in (oracle.a1in, oracle.a1out, oracle.am):
        lst[:] = [k for k in lst if k[0] != asid]
    return dropped


def _assert_arc_equal(state, oracle):
    # Full internal byte-identity: residents, both ghost lists, and the
    # adaptation target p (private attributes read on purpose — the
    # proof is that the whole state machine tracks the pseudocode).
    assert list(state._t1) == oracle.t1
    assert list(state._t2) == oracle.t2
    assert list(state._b1) == oracle.b1
    assert list(state._b2) == oracle.b2
    assert state._p == oracle.p
    assert list(state.members()) == oracle.residents()
    assert len(state) == len(oracle.residents())
    # Falsy exactly when indistinguishable from a fresh set: flushes and
    # grouped shootdowns skip falsy sets.
    fresh = ArcOracle(oracle.c)
    assert bool(state) == (vars(oracle) != vars(fresh))


def _assert_twoq_equal(state, oracle):
    assert list(state._a1in) == oracle.a1in
    assert list(state._a1out) == oracle.a1out
    assert list(state._am) == oracle.am
    assert list(state.members()) == oracle.residents()
    assert len(state) == len(oracle.residents())
    fresh = TwoQOracle(oracle.c)
    assert bool(state) == (vars(oracle) != vars(fresh))


def _drive_policy(state, oracle, ops, purge, check):
    for op, arg in ops:
        if op == "access":
            assert (arg in state) == (arg in oracle)
            if arg in state:
                state.touch(arg)
                oracle.hit(arg)
            else:
                assert state.admit(arg) == oracle.insert(arg)
        elif op == "remove":
            assert state.remove(arg) == oracle.remove(arg)
        elif op == "remove_many":
            assert state.remove_many(arg) == sum(oracle.remove(k) for k in arg)
        elif op == "purge":
            assert state.purge_asid(arg) == purge(oracle, arg)
        else:
            state.clear()
            oracle.__init__(oracle.c)
        check(state, oracle)


@pytest.mark.parametrize("ways", [1, 2, 3, 4, 8])
@settings(max_examples=40)
@given(ops=_POLICY_OPS)
def test_arc_matches_fast03_oracle(ways, ops):
    _drive_policy(
        ArcState(ways), ArcOracle(ways), ops, _oracle_purge_arc,
        _assert_arc_equal,
    )


@pytest.mark.parametrize("ways", [1, 2, 3, 4, 8])
@settings(max_examples=40)
@given(ops=_POLICY_OPS)
def test_twoq_matches_vldb94_oracle(ways, ops):
    _drive_policy(
        TwoQState(ways), TwoQOracle(ways), ops, _oracle_purge_twoq,
        _assert_twoq_equal,
    )


# ---------------------------------------------------------------------------
# zoo policies through the production array

@pytest.mark.parametrize("policy", ["arc", "twoq"])
def test_array_respects_policy_capacity(policy):
    tlb = SetAssociativeTLB(8, 4, policy=policy)
    for page in range(32):
        if not tlb.lookup(1, PAGE_4K, page):
            tlb.insert(1, PAGE_4K, page)
    assert tlb.occupancy <= 8
    for cache_set in tlb._sets:
        assert len(cache_set) <= 4


@pytest.mark.parametrize("policy", ["arc", "twoq"])
def test_array_invalidate_asid_drops_ghosts(policy):
    """A shot-down translation must not later count as a ghost hit."""
    tlb = SetAssociativeTLB(4, 4, policy=policy)
    for page in range(6):  # overflow the set so ghosts accumulate
        tlb.insert(1, PAGE_4K, page)
    assert tlb.invalidate_asid(1) >= 1
    assert tlb.occupancy == 0
    state = tlb._sets[0]
    assert len(state) == 0
    # No resident or ghost survives: a fresh admit of a purged key must
    # behave exactly like a cold miss on an empty policy.
    fresh = make_policy(policy, 4)
    assert state.admit((1, PAGE_4K, 0)) == fresh.admit((1, PAGE_4K, 0))


def test_arc_scan_resistance():
    """The motivating behaviour: a scan must not flush the hot set."""
    state = ArcState(4)
    hot = [(1, PAGE_4K, p) for p in range(2)]
    for _ in range(3):  # promote the hot keys into T2
        for key in hot:
            if key in state:
                state.touch(key)
            else:
                state.admit(key)
    for page in range(100, 140):  # one-touch scan
        state.admit((1, PAGE_4K, page))
    assert all(key in state for key in hot)


def test_twoq_scan_resistance():
    state = TwoQState(4)
    hot = (1, PAGE_4K, 0)
    state.admit(hot)
    # Demote to A1out, readmit -> Am (proven hot).
    for page in range(1, 4):
        state.admit((1, PAGE_4K, page))
    state.admit(hot)
    assert hot in state._am
    for page in range(100, 140):  # one-touch scan stays in A1in
        if (1, PAGE_4K, page) not in state:
            state.admit((1, PAGE_4K, page))
    assert hot in state
