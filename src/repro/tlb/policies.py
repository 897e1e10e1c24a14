"""Pluggable per-set replacement policies for the TLB arrays.

:class:`~repro.tlb.set_assoc.SetAssociativeTLB` used to hardcode LRU
inside its lookup/insert paths; this module extracts the replacement
decision behind one frozen interface so slices can run LRU, ARC, or 2Q
— and so the offline Belady bound (:mod:`repro.tlb.opt`) can replay the
exact same per-set state machines against stored traces.

Interface contract (one :class:`ReplacementPolicy` instance per cache
set, capacity ``ways``):

* ``key in state`` / ``len(state)`` — *resident* membership and count.
  Ghost/history entries (ARC's B1/B2, 2Q's A1out) are never visible
  here, which is what keeps ``probe()`` side-effect-free and
  shootdowns honest.
* ``members()``      — residents in eviction-preference order (most
  evictable first); drives QoS way-quota victim selection and
  ``iter_keys``.
* ``touch(key)``     — a hit on a resident key (LRU refresh, ARC
  promote-to-T2, 2Q's deliberate A1in no-op).
* ``admit(key)``     — install a non-resident key; the policy makes its
  internal replacement decision and returns the evicted resident, or
  ``None`` when the set had room.
* ``remove(key)``    — invalidate: drops the resident entry *and* any
  ghost history for the key (a shot-down translation must not later
  count as a ghost hit); returns whether the key was resident.
* ``remove_many(keys)`` — ``remove`` of every key in a set of keys;
  returns how many were resident (one shootdown burst, set by set).
* ``purge_asid(asid)`` / ``clear()`` — context teardown / full flush,
  both of which also forget history and adaptation state.
* ``bool(state)``    — False only when the set is indistinguishable
  from a fresh one: no residents and no history.  Flushes and grouped
  shootdowns skip such sets, since clearing them changes nothing.

Determinism contract: every policy is a pure function of its access
sequence — no wall clock, no RNG, no ambient state.  This is what lets
run results stay byte-identical across jobs=1/jobs=N and cache replay,
and what makes the policies independently verifiable against the
reference oracles in ``tests/tlb/_policy_oracles.py``.

L1 TLBs always run LRU: the engine's batched fast path counts their
hits and misses by replaying each core's stream through scratch
:class:`LruState` sets (``repro.sim.engine._compile_core``), one dict
``pop`` per record.  ``policy=`` applies to the L2 structures (private
L2s, shared slices/banks).

``opt`` is deliberately *not* constructible here: Belady's algorithm
needs the future, so it exists only as the offline bound in
:mod:`repro.tlb.opt` and is never run inside the DES hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import AbstractSet, Dict, Iterator, Optional, Tuple, Type

Key = Tuple[int, int, int]  # (asid, page_size, page_number)


class ReplacementPolicy:
    """Abstract per-set replacement state (see the module docstring).

    Subclasses implement the full contract; this base only documents
    it and provides ``remove_many`` as a loop over ``remove``.  It has
    no instance dict, so a subclass that declares ``__slots__`` (as
    :class:`LruState` does) carries none either.
    """

    __slots__ = ()

    #: Registry name; subclasses override.
    name = ""

    def __init__(self, ways: int) -> None:
        raise NotImplementedError

    def __contains__(self, key: Key) -> bool:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def members(self) -> Iterator[Key]:  # pragma: no cover
        raise NotImplementedError

    def touch(self, key: Key) -> None:  # pragma: no cover
        raise NotImplementedError

    def admit(self, key: Key) -> Optional[Key]:  # pragma: no cover
        raise NotImplementedError

    def remove(self, key: Key) -> bool:  # pragma: no cover
        raise NotImplementedError

    def remove_many(self, keys: AbstractSet[Key]) -> int:
        # Each remove touches only its own key, so order is irrelevant.
        return sum(self.remove(key) for key in keys)

    def purge_asid(self, asid: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover
        raise NotImplementedError


class LruState(dict, ReplacementPolicy):
    """Least-recently-used — the refactored default.

    Byte-identical to the pre-refactor hardcoded behaviour: residents
    are the keys of one plain dict (values ``None``), whose insertion
    order is the LRU -> MRU order.  A hit deletes and re-inserts its
    key; a full-set admit evicts the first key.  Dict equality ignores
    order, so compare two states as ``list(state)``.  The only instance
    state beyond the dict is the ``ways`` slot, so a set costs what a
    plain dict of its keys costs, plus that slot.
    """

    __slots__ = ("ways",)

    name = "lru"

    def __init__(self, ways: int) -> None:
        self.ways = ways

    def touch(self, key: Key) -> None:
        del self[key]
        self[key] = None

    def members(self) -> Iterator[Key]:
        return iter(self)

    def admit(self, key: Key) -> Optional[Key]:
        evicted = None
        if len(self) >= self.ways:
            evicted = next(iter(self))
            del self[evicted]
        self[key] = None
        return evicted

    def remove(self, key: Key) -> bool:
        if key in self:
            del self[key]
            return True
        return False

    def remove_many(self, keys: AbstractSet[Key]) -> int:
        # At most ``ways`` residents: intersect in C, then delete those.
        stale = self.keys() & keys
        for key in stale:
            del self[key]
        return len(stale)

    def purge_asid(self, asid: int) -> int:
        stale = [key for key in self if key[0] == asid]
        for key in stale:
            del self[key]
        return len(stale)


class ArcState(ReplacementPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

    Residents split into a recency list T1 and a frequency list T2
    (each LRU -> MRU), shadowed by equal-history ghost lists B1/B2; the
    target size ``p`` of T1 adapts on ghost hits with the standard
    integer deltas ``max(|B_other| // |B_hit|, 1)``.

    Mapping onto the TLB's split lookup/insert flow: a resident hit is
    Case I (``touch``); a miss walks first and installs later, so the
    ghost-hit and cold-miss cases (II/III/IV, including the REPLACE
    subroutine) all run inside ``admit``.  Conventions beyond the
    paper's pseudocode, matched by the test oracle:

    * ``_replace`` is a no-op while the set is not full — invalidations
      can leave |T1|+|T2| < c, and nothing should be evicted then;
    * QoS way-quota evictions (``remove`` of a resident) never ghost —
      a forced eviction is not a capacity-replacement observation;
    * ``remove``/``purge_asid``/``clear`` also forget ghost history for
      the affected keys (``clear`` resets ``p``).
    """

    name = "arc"

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._t1: "OrderedDict[Key, None]" = OrderedDict()
        self._t2: "OrderedDict[Key, None]" = OrderedDict()
        self._b1: "OrderedDict[Key, None]" = OrderedDict()
        self._b2: "OrderedDict[Key, None]" = OrderedDict()
        self._p = 0

    def __contains__(self, key: Key) -> bool:
        return key in self._t1 or key in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __bool__(self) -> bool:
        return bool(self._t1 or self._t2 or self._b1 or self._b2 or self._p)

    def members(self) -> Iterator[Key]:
        yield from self._t1
        yield from self._t2

    def touch(self, key: Key) -> None:
        # Case I: hit in T1 or T2 -> MRU of T2.
        if key in self._t2:
            self._t2.move_to_end(key)
        else:
            del self._t1[key]
            self._t2[key] = None

    def _replace(self, in_b2: bool) -> Optional[Key]:
        """Evict one resident to its ghost list; no-op when not full."""
        if len(self._t1) + len(self._t2) < self.ways:
            return None
        t1 = len(self._t1)
        if t1 >= 1 and ((in_b2 and t1 == self._p) or t1 > self._p):
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        elif self._t2:
            victim, _ = self._t2.popitem(last=False)
            self._b2[victim] = None
        else:  # defensive: T2 empty forces a T1 eviction
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        return victim

    def admit(self, key: Key) -> Optional[Key]:
        b1, b2 = self._b1, self._b2
        if key in b1:
            # Case II: B1 ghost hit — grow the recency target.
            self._p = min(self._p + max(len(b2) // len(b1), 1), self.ways)
            evicted = self._replace(False)
            del b1[key]
            self._t2[key] = None
            return evicted
        if key in b2:
            # Case III: B2 ghost hit — shrink the recency target.
            self._p = max(self._p - max(len(b1) // len(b2), 1), 0)
            evicted = self._replace(True)
            del b2[key]
            self._t2[key] = None
            return evicted
        # Case IV: cold miss.
        evicted = None
        t1_b1 = len(self._t1) + len(b1)
        if t1_b1 == self.ways:
            if len(self._t1) < self.ways:
                b1.popitem(last=False)
                evicted = self._replace(False)
            else:
                # T1 holds the whole set: drop its LRU without ghosting.
                evicted, _ = self._t1.popitem(last=False)
        elif t1_b1 < self.ways:
            total = t1_b1 + len(self._t2) + len(b2)
            if total >= self.ways:
                if total == 2 * self.ways:
                    b2.popitem(last=False)
                evicted = self._replace(False)
        self._t1[key] = None
        return evicted

    def remove(self, key: Key) -> bool:
        for residents in (self._t1, self._t2):
            if key in residents:
                del residents[key]
                return True
        self._b1.pop(key, None)
        self._b2.pop(key, None)
        return False

    def purge_asid(self, asid: int) -> int:
        dropped = 0
        for residents in (self._t1, self._t2):
            stale = [key for key in residents if key[0] == asid]
            for key in stale:
                del residents[key]
            dropped += len(stale)
        for ghosts in (self._b1, self._b2):
            for key in [key for key in ghosts if key[0] == asid]:
                del ghosts[key]
        return dropped

    def clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0


class TwoQState(ReplacementPolicy):
    """2Q, full version (Johnson & Shasha, VLDB '94).

    Residents split into the A1in FIFO (first-touch probation,
    ``Kin = max(1, ways // 4)``) and the Am LRU (proven-hot); A1out is
    a ghost FIFO of ``Kout = max(1, ways // 2)`` recently demoted keys.
    A hit in A1in deliberately does nothing (correlated references must
    not promote); a key readmitted while in A1out goes straight to Am.

    Convention beyond the paper's pseudocode, matched by the test
    oracle: when ``reclaimfor`` needs a victim but Am is empty (tiny
    way counts), the A1in head is evicted and ghosted exactly as in the
    ``|A1in| > Kin`` branch.
    """

    name = "twoq"

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.k_in = max(1, ways // 4)
        self.k_out = max(1, ways // 2)
        self._a1in: "OrderedDict[Key, None]" = OrderedDict()
        self._a1out: "OrderedDict[Key, None]" = OrderedDict()
        self._am: "OrderedDict[Key, None]" = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._a1in or key in self._am

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def __bool__(self) -> bool:
        return bool(self._a1in or self._a1out or self._am)

    def members(self) -> Iterator[Key]:
        yield from self._a1in
        yield from self._am

    def touch(self, key: Key) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # A1in hits deliberately do nothing (correlated references).

    def _reclaim(self) -> Optional[Key]:
        """Free one slot (the paper's ``reclaimfor``); None if roomy."""
        if len(self) < self.ways:
            return None
        if len(self._a1in) > self.k_in or not self._am:
            victim, _ = self._a1in.popitem(last=False)
            self._a1out[victim] = None
            if len(self._a1out) > self.k_out:
                self._a1out.popitem(last=False)
        else:
            victim, _ = self._am.popitem(last=False)
        return victim

    def admit(self, key: Key) -> Optional[Key]:
        evicted = self._reclaim()
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = None
        else:
            self._a1in[key] = None
        return evicted

    def remove(self, key: Key) -> bool:
        for residents in (self._a1in, self._am):
            if key in residents:
                del residents[key]
                return True
        self._a1out.pop(key, None)
        return False

    def purge_asid(self, asid: int) -> int:
        dropped = 0
        for residents in (self._a1in, self._am):
            stale = [key for key in residents if key[0] == asid]
            for key in stale:
                del residents[key]
            dropped += len(stale)
        for key in [key for key in self._a1out if key[0] == asid]:
            del self._a1out[key]
        return dropped

    def clear(self) -> None:
        self._a1in.clear()
        self._a1out.clear()
        self._am.clear()


#: The constructible (online) policy registry.  ``opt`` is offline-only
#: (see repro.tlb.opt) and deliberately absent.
POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LruState,
    "arc": ArcState,
    "twoq": TwoQState,
}

#: Sorted policy names — the ``SystemConfig.policy`` / CLI choices.
POLICY_NAMES: Tuple[str, ...] = tuple(sorted(POLICIES))


def make_policy(name: str, ways: int) -> ReplacementPolicy:
    """Build one per-set policy state by registry name."""
    try:
        state_cls = POLICIES[name]
    except KeyError:
        known = ", ".join(POLICY_NAMES)
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    return state_cls(ways)
