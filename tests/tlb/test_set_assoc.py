"""Core TLB array: indexing, LRU, invalidation invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_4K


def make(entries=64, ways=4, shift=0):
    return SetAssociativeTLB(entries, ways, index_shift=shift)


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SetAssociativeTLB(0, 4)
    with pytest.raises(ValueError):
        SetAssociativeTLB(10, 4)  # not divisible


def test_tiny_fully_associative_allowed():
    tlb = SetAssociativeTLB(4, 8)  # the 4-entry 1GB L1 TLB case
    assert tlb.ways == 4
    assert tlb.num_sets == 1


def test_miss_then_insert_then_hit():
    tlb = make()
    assert not tlb.lookup(1, PAGE_4K, 100)
    tlb.insert(1, PAGE_4K, 100)
    assert tlb.lookup(1, PAGE_4K, 100)


def test_asid_isolates_translations():
    tlb = make()
    tlb.insert(1, PAGE_4K, 100)
    assert not tlb.lookup(2, PAGE_4K, 100)


def test_page_size_isolates_translations():
    tlb = make()
    tlb.insert(1, PAGE_4K, 100)
    assert not tlb.lookup(1, 2 * 1024 * 1024, 100)


def test_lru_eviction_order():
    tlb = SetAssociativeTLB(2, 2)  # one set of two ways
    tlb.insert(1, PAGE_4K, 0)
    tlb.insert(1, PAGE_4K, 2)
    tlb.lookup(1, PAGE_4K, 0)  # 0 becomes MRU
    evicted = tlb.insert(1, PAGE_4K, 4)
    assert evicted == (1, PAGE_4K, 2)


def test_reinsert_refreshes_lru():
    tlb = SetAssociativeTLB(2, 2)
    tlb.insert(1, PAGE_4K, 0)
    tlb.insert(1, PAGE_4K, 2)
    tlb.insert(1, PAGE_4K, 0)  # refresh, no eviction
    assert tlb.evictions == 0
    tlb.insert(1, PAGE_4K, 4)
    assert not tlb.probe(1, PAGE_4K, 2)


def test_modulo_indexing():
    tlb = make(entries=64, ways=4)  # 16 sets
    tlb.insert(1, PAGE_4K, 5)
    tlb.insert(1, PAGE_4K, 5 + 16)
    # Different pages, same set, both present (2 of 4 ways).
    assert tlb.probe(1, PAGE_4K, 5)
    assert tlb.probe(1, PAGE_4K, 5 + 16)


def test_index_shift_skips_slice_bits():
    tlb = make(entries=64, ways=4, shift=4)
    # Pages 0x10 apart differ only in bits the shift consumes -> same set
    # only if bits above shift match.
    tlb.insert(1, PAGE_4K, 0x100)
    tlb.insert(1, PAGE_4K, 0x101)  # same set under shift=4
    assert tlb.probe(1, PAGE_4K, 0x100)
    assert tlb.probe(1, PAGE_4K, 0x101)


def test_invalidate_present_and_absent():
    tlb = make()
    tlb.insert(1, PAGE_4K, 100)
    assert tlb.invalidate(1, PAGE_4K, 100)
    assert not tlb.invalidate(1, PAGE_4K, 100)
    assert not tlb.probe(1, PAGE_4K, 100)


def test_invalidate_asid_drops_only_that_asid():
    tlb = make()
    tlb.insert(1, PAGE_4K, 100)
    tlb.insert(2, PAGE_4K, 200)
    assert tlb.invalidate_asid(1) == 1
    assert not tlb.probe(1, PAGE_4K, 100)
    assert tlb.probe(2, PAGE_4K, 200)


def test_flush_empties_everything():
    tlb = make()
    for pn in range(10):
        tlb.insert(1, PAGE_4K, pn)
    assert tlb.flush() == 10
    assert tlb.occupancy == 0


def test_grouped_invalidation_visits_only_sets_holding_entries():
    tlb = SetAssociativeTLB(64, 4, lazy_sets=True)  # 16 sets
    tlb.insert(1, PAGE_4K, 3)
    tlb.insert(1, PAGE_4K, 19)
    tlb.insert(2, PAGE_4K, 3)
    burst = [(1, PAGE_4K, pn) for pn in range(40)] + [(1, PAGE_4K, 3)]
    groups = tlb.group(burst)
    assert sorted(index for index, _ in groups) == list(range(16))
    assert dict(groups)[3] == {(1, PAGE_4K, p) for p in (3, 19, 35)}
    assert tlb.invalidate_grouped(groups) == 2
    assert list(tlb.iter_keys()) == [(2, PAGE_4K, 3)]
    # Sets the burst maps to but nothing was cached in stay unbuilt.
    assert [i for i, s in enumerate(tlb._sets) if s is not None] == [3]


def test_flush_clears_in_place_and_skips_unbuilt_sets():
    tlb = SetAssociativeTLB(64, 4, lazy_sets=True)
    for pn in (0, 1, 17):
        tlb.insert(1, PAGE_4K, pn)
    built = tlb._sets[1]
    assert tlb.flush() == 3
    assert tlb._sets[1] is built and not built  # cleared, not replaced
    assert [i for i, s in enumerate(tlb._sets) if s is not None] == [0, 1]
    assert tlb.flush() == 0


def test_probe_does_not_touch_stats_or_lru():
    tlb = SetAssociativeTLB(2, 2)
    tlb.insert(1, PAGE_4K, 0)
    tlb.insert(1, PAGE_4K, 2)
    tlb.probe(1, PAGE_4K, 0)  # must NOT refresh LRU
    tlb.insert(1, PAGE_4K, 4)
    assert not tlb.probe(1, PAGE_4K, 0)  # 0 was LRU despite the probe
    assert tlb.hits == 0 and tlb.misses == 0


def test_occupancy_never_exceeds_capacity():
    tlb = make(entries=16, ways=2)
    for pn in range(1000):
        tlb.insert(1, PAGE_4K, pn)
    assert tlb.occupancy <= 16


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "invalidate"]),
            st.integers(min_value=1, max_value=3),  # asid
            st.integers(min_value=0, max_value=200),  # page number
        ),
        max_size=300,
    )
)
def test_model_equivalence_under_random_ops(ops):
    """The array behaves like a capacity-bounded set: present keys were
    inserted and not since invalidated; occupancy bounded; a hit implies
    presence in the reference model's recently-inserted set."""
    tlb = SetAssociativeTLB(16, 4)
    reference = set()
    for op, asid, pn in ops:
        key = (asid, PAGE_4K, pn)
        if op == "insert":
            tlb.insert(asid, PAGE_4K, pn)
            reference.add(key)
        elif op == "lookup":
            if tlb.lookup(asid, PAGE_4K, pn):
                assert key in reference  # no phantom hits
        else:
            tlb.invalidate(asid, PAGE_4K, pn)
            reference.discard(key)
        assert tlb.occupancy <= 16


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=64))
def test_recent_distinct_inserts_within_way_count_always_hit(pages):
    """The most recent insert to any set is always resident (LRU)."""
    tlb = SetAssociativeTLB(64, 4)
    for pn in pages:
        tlb.insert(1, PAGE_4K, pn)
    assert tlb.probe(1, PAGE_4K, pages[-1])


# ---------------------------------------------------------------------------
# probes are side-effect-free for every policy


@pytest.mark.parametrize("policy", ["lru", "arc", "twoq"])
def test_probe_interleave_does_not_perturb_state(policy):
    """translate_only presence checks must not disturb replacement.

    Two arrays see the same lookup/insert sequence; one additionally
    fields a storm of ``probe``/``occupancy``/``iter_keys`` reads
    between every step (the shootdown/QoS observation paths).  End
    state must be identical — a probe that touched recency would make
    invalidation sweeps perturb victim selection.
    """
    quiet = SetAssociativeTLB(16, 4, policy=policy)
    probed = SetAssociativeTLB(16, 4, policy=policy)
    pages = [0, 4, 8, 12, 0, 16, 4, 20, 8, 0, 24, 12, 28, 16, 0, 4]
    for step, pn in enumerate(pages):
        for tlb in (quiet, probed):
            if not tlb.lookup(1, PAGE_4K, pn):
                tlb.insert(1, PAGE_4K, pn)
        # Observation storm on one array only: resident, absent, and
        # other-ASID probes, plus the iteration-based observers.
        probed.probe(1, PAGE_4K, pn)
        probed.probe(1, PAGE_4K, 999 + step)
        probed.probe(2, PAGE_4K, pn)
        assert probed.occupancy == quiet.occupancy
        list(probed.iter_keys())
    assert list(probed.iter_keys()) == list(quiet.iter_keys())
    assert (probed.hits, probed.misses, probed.evictions) == (
        quiet.hits, quiet.misses, quiet.evictions
    )
