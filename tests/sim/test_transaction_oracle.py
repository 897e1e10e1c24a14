"""The L2 transaction against the method chain and the lean twin it replaced.

``System`` resolves every L1 miss through one closure it builds at
construction (one for private L2s, one for shared slices and banks).
Two references are kept here, verbatim, only as tests:

* :class:`ChainSystem` — ``System.l2_transaction`` as it was, a chain of
  methods (``_private_transaction``, ``_shared_transaction``,
  ``_response``, ``_async_fill``, ``_walk_at``, ``_charge``);
* :func:`make_lean_transaction` — the hand-inlined mesh-distributed
  transaction the vectorized engine used to call instead, which folds
  its counters into the live objects only at ``finalize``.

A hypothesis test drives both ``System`` and the chain with the same
random ``(core, asid, size, page_number, now)`` sequence (out-of-order
``now``, 1GB pages) over every scheme and interconnect, each replacement
policy and arbitration mode, and the rarer branches: prefetch, remote
walks, QoS quotas, the fixed-latency walker, a fixed shared latency, no
overlap, faults, an enabled sink, intervals and a timeline.  After every
call the stalls must match, and so must the whole simulated state.
"""

from dataclasses import replace
from typing import Callable, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ROUND_TRIP, NocstarConfig
from repro.faults.models import FaultPlan
from repro.noc.mesh import Traversal
from repro.noc.route_cache import shared_route_cache
from repro.noc.topology import MeshTopology
from repro.obs import NULL_SINK, EventTrace, MetricsSink
from repro.sim import configs as cfg
from repro.sim.engine import REFERENCE_ENV
from repro.sim.system import POLLUTION_CYCLES_PER_FILL, System
from repro.tlb.l2_shared import (
    FIFO,
    PREFETCH_CLASS,
    PRIORITY,
    WALK_CLASS,
    MonolithicSharedTlb,
)
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.vm.walker import PageTableWalker
from tests.sim.test_shootdown_oracle import _set_state


def hop_table_send(mesh, hop_rows):
    """``ContentionFreeMesh.send`` as it was on the fault-free tables of
    an unobserved run: hops off the table, no per-link accounting."""

    def send(src: int, dst: int, now: int) -> Traversal:
        hops = hop_rows[src][dst]
        mesh.messages += 1
        mesh.total_hops += hops
        return Traversal(arrival=now + hops * mesh.cycles_per_hop, hops=hops)

    return send


class ChainSystem(System):
    """A ``System`` whose L2 transaction is the method chain it replaced."""

    def __init__(self, config, **kwargs) -> None:
        super().__init__(config, **kwargs)
        # Attributes only the chain reads, set as System used to.
        self._hops_table = self.routes.hops
        self._ideal_cycles = None
        if config.scheme == cfg.NOCSTAR and config.nocstar_ideal:
            # ceil(hops / HPCmax) per pair, from the hop table.
            hops = self.routes.hops_array.astype(int)
            self._ideal_cycles = (-(-hops // config.nocstar.hpc_max)).tolist()
        if self.mesh_hop_rows is not None:
            # Where System times mesh legs from the hop rows, the mesh
            # the chain calls sends off them, as it used to.
            mesh = self.network
            mesh.send = hop_table_send(mesh, self.mesh_hop_rows)
        prio = config.arbitration == PRIORITY
        self._klass_walk = WALK_CLASS if prio else 0
        self._klass_prefetch = PREFETCH_CLASS if prio else 0

    def l2_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Resolve an L1 TLB miss; returns the stall in cycles.

        The caller (engine fast path) has already probed the L1 and
        inserts the translation into it afterwards.
        """
        if self.config.scheme == cfg.PRIVATE:
            return self._private_transaction(core, asid, size, page_number, now)
        return self._shared_transaction(core, asid, size, page_number, now)

    def _charge(self, access_cycles: int, walk_cycles: int) -> int:
        """Stall visible to the core: OoO hides part of the *access*
        latency (SRAM + interconnect), never the walk."""
        visible = self._visible
        if visible == 1.0:
            # int(x * 1.0) == x exactly for any cycle count below 2**53,
            # so the fast path is bit-identical, not an approximation.
            return access_cycles + walk_cycles
        return int(access_cycles * visible) + walk_cycles

    def _private_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        l2 = self.private_l2[core]
        lookup_done = now + self.l2_lookup_cycles
        hit = l2.lookup_page_number(asid, size, page_number)
        if self._event is not None:
            self._event(
                lookup_done, "l2_lookup", core=core, slice=core, hit=hit
            )
        if hit:
            self.stats.l2_hits += 1
            return self._charge(self.l2_lookup_cycles, 0)
        self.stats.l2_misses += 1
        done = self._walk_at(core, asid, size, page_number, lookup_done)
        l2.insert_page_number(asid, size, page_number)
        if self.prefetcher.enabled:
            for pa, ps, pp in self.prefetcher.candidates(asid, size, page_number):
                if l2.lookup_page_number(pa, ps, pp):
                    continue
                self._async_prefetch_walk(core, pa, ps, pp, done)
                l2.insert_page_number(pa, ps, pp)
                self.stats.prefetches += 1
        return self._charge(self.l2_lookup_cycles, done - lookup_done)

    def _shared_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        shared = self.shared_l2
        home = shared.home(page_number, asid)
        dst_tile = self.mono_tile if self._is_monolithic else home
        inj = self.faults
        if inj is not None:
            # Degrade rather than hang: a dead home slice cannot serve
            # the lookup, and a partitioned pair cannot complete the
            # round trip — either way the request walks locally (no
            # shared fill: the slice would never receive it).
            dead_slice = not self._is_monolithic and inj.slice_dead(home)
            unreachable = (
                core != dst_tile
                and self._network_fault_aware
                and not inj.router.reachable_round_trip(core, dst_tile)
            )
            if dead_slice or unreachable:
                self.stats.l2_misses += 1
                inj.record_degraded_walk(now, core, dst_tile)
                walk_done = self._walk_at(core, asid, size, page_number, now)
                if self.timeline is not None:
                    self.timeline.append(("walk", now, walk_done))
                return self._charge(0, walk_done - now)
        held_links = ()

        # Request leg.
        if self._is_nocstar:
            if self.config.nocstar_ideal:
                hops = self._hops_table[core][dst_tile]
                dur = self._ideal_cycles[core][dst_tile]
                arrival = now + (1 + dur if hops else 0)
                self.network.messages += 1
                self.network.total_hops += hops
                self.network.uncontended_messages += 1 if hops else 0
            elif self.config.nocstar.acquire == ROUND_TRIP:
                traversal = self.network.send(core, dst_tile, now, hold=True)
                arrival = traversal.ready
                held_links = traversal.links
            else:
                traversal = self.network.send(core, dst_tile, now)
                arrival = traversal.ready
        elif self.network is not None:
            arrival = self.network.send(core, dst_tile, now).arrival
            if self._is_monolithic:
                arrival += MonolithicSharedTlb.INGRESS_CYCLES
        else:
            arrival = now  # ideal zero-latency interconnect / fixed-latency

        # Slice/bank port + SRAM lookup.
        start = shared.reserve_read(home, arrival, self._klass_walk)
        lookup_done = start + self.l2_lookup_cycles
        if self.record_intervals:
            self.intervals.append((arrival, lookup_done, home))
        if self.timeline is not None:
            self.timeline.append(("request-network", now, arrival))
            self.timeline.append(("slice-lookup", start, lookup_done))

        hit = shared.lookup_page_number(asid, size, page_number, home)
        if self._event is not None:
            self._event(
                lookup_done, "l2_lookup", core=core, slice=home, hit=hit
            )
        walk_cycles = 0
        if hit:
            self.stats.l2_hits += 1
            response_from = lookup_done
        else:
            self.stats.l2_misses += 1
            if self.config.ptw_policy == cfg.PTW_REMOTE and not self._is_monolithic:
                walk_core = dst_tile
                walk_done = self._walk_at(
                    walk_core, asid, size, page_number, lookup_done
                )
                if walk_core != core and self.config.ptw_fixed is None:
                    self.pending_penalty[walk_core] += (
                        self._last_pollution * POLLUTION_CYCLES_PER_FILL
                    )
                shared.insert_page_number(asid, size, page_number)
                shared.reserve_write(home, walk_done, self._klass_walk)
                walk_cycles = walk_done - lookup_done
                response_from = walk_done
            else:
                # Miss message returns to the requester, which walks and
                # then sends the fill back to the home slice.
                miss_reply = self._response(core, dst_tile, lookup_done, held_links)
                walk_done = self._walk_at(core, asid, size, page_number, miss_reply)
                held_links = ()  # released by the miss reply
                self._async_fill(core, dst_tile, home, walk_done)
                shared.insert_page_number(asid, size, page_number)
                if self.prefetcher.enabled:
                    self._prefetch_fill(core, asid, size, page_number, walk_done)
                if self.timeline is not None:
                    self.timeline.append(("walk", miss_reply, walk_done))
                return self._charge(miss_reply - now, walk_done - miss_reply)

        response_ready = self._response(core, dst_tile, response_from, held_links)
        if self.timeline is not None:
            self.timeline.append(("response-network", response_from, response_ready))
        if not hit and self.prefetcher.enabled:
            self._prefetch_fill(core, asid, size, page_number, response_ready)
        return self._charge(response_ready - now - walk_cycles, walk_cycles)

    def _response(
        self, core: int, dst_tile: int, ready_at: int, held_links
    ) -> int:
        """Send the response (or miss message) back to the requester."""
        if self._is_nocstar:
            if self.config.nocstar_ideal:
                hops = self._hops_table[dst_tile][core]
                dur = self._ideal_cycles[dst_tile][core]
                self.network.messages += 1
                self.network.total_hops += hops
                self.network.uncontended_messages += 1 if hops else 0
                return ready_at + dur
            if held_links:
                # Round-trip acquisition: path still ours, no arbitration.
                dur = self.network.traversal_cycles(len(held_links))
                ready = ready_at + dur
                self.network.release(held_links, ready)
                self.network.messages += 1
                self.network.total_hops += len(held_links)
                return ready
            return self.network.send(
                dst_tile, core, ready_at, speculative_setup=True
            ).ready
        if self.network is not None:
            egress = (
                MonolithicSharedTlb.INGRESS_CYCLES if self._is_monolithic else 0
            )
            return self.network.send(dst_tile, core, ready_at).arrival + egress
        return ready_at

    def _async_fill(self, core: int, dst_tile: int, home: int, when: int) -> None:
        """Fire-and-forget insert message from requester back to the slice."""
        if self._is_nocstar and not self.config.nocstar_ideal:
            self.network.send(core, dst_tile, when)
        elif self.network is not None:
            self.network.send(core, dst_tile, when)
        self.shared_l2.reserve_write(home, when, self._klass_walk)

    def _prefetch_fill(
        self, core: int, asid: int, size: int, page_number: int, when: int
    ) -> None:
        """Prefetch neighbour translations into their home slices.

        Each prefetched translation requires its own page walk, which
        occupies (but does not stall on) the requesting core's walkers
        — this is what makes over-aggressive distances (+/-3) pollute,
        as the paper observed."""
        for pa, ps, pp in self.prefetcher.candidates(asid, size, page_number):
            if self.shared_l2.probe_page_number(pa, ps, pp):
                continue
            self._async_prefetch_walk(core, pa, ps, pp, when)
            self.shared_l2.insert_page_number(pa, ps, pp)
            self.shared_l2.reserve_write(
                self.shared_l2.home(pp, pa), when, self._klass_prefetch
            )
            self.stats.prefetches += 1

    def _async_prefetch_walk(
        self, core: int, asid: int, size: int, page_number: int, when: int
    ) -> None:
        result = self.walker.walk(core, asid, size, page_number, when)
        latency = result.latency
        if self.faults is not None:
            latency = self.faults.walk_latency(latency)
        self.walker_queues[core].admit(when, latency)

    _last_pollution = 0

    def _walk_at(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Queue and perform a page walk at ``core``'s hardware walker."""
        result = self.walker.walk(core, asid, size, page_number, now)
        self._last_pollution = getattr(result, "pollution", 0)
        self.stats.walks += 1
        latency = result.latency
        if self.faults is not None:
            latency = self.faults.walk_latency(latency)
        return self.walker_queues[core].admit(now, latency)


def make_lean_transaction(
    system, sink
) -> Optional[Tuple[Callable[[int, int, int, int, int], int], Callable[[], None]]]:
    """Inlined mesh-distributed transaction, or None outside its gate.

    Returns ``(transaction, finalize)``: ``transaction`` matches the
    ``System.l2_transaction`` signature and semantics byte-for-byte for
    the gated configuration; ``finalize`` folds the locally accumulated
    slice/stat/network counters back into the live objects and must run
    once after the drive loop.
    """
    config = system.config
    if (
        config.scheme != cfg.DISTRIBUTED
        or config.interconnect != cfg.MESH
        or config.slice_indexing != "modulo"
        or config.policy != "lru"
        or config.arbitration != FIFO
        or config.qos_way_quota is not None
        or config.ptw_policy != cfg.PTW_REQUESTER
        or system.prefetcher.enabled
        or system.faults is not None
        or system.record_intervals
        or system.timeline is not None
        or sink.enabled
    ):
        return None

    shared = system.shared_l2
    num_slices = shared.num_shards
    cycles_per_hop = system.network.cycles_per_hop
    hop_rows = system.routes.hops
    lookup_cycles = system.l2_lookup_cycles
    read_ports = shared.read_ports
    write_ports = shared.write_ports
    read_starts = [ports._starts for ports in read_ports]
    write_starts = [ports._starts for ports in write_ports]
    num_read = read_ports[0].num_ports
    num_write = write_ports[0].num_ports
    slice_sets = [shard._sets for shard in shared.shards]
    shard0 = shared.shards[0]
    shard_shift = shard0.index_shift
    shard_num_sets = shard0.num_sets
    shard_ways = shard0.ways
    make_set = shard0._state_cls  # materialises lazily-constructed sets
    visible = system._visible
    overlap_off = visible == 1.0
    do_walk = system.walker.walk_cycles
    queues = system.walker_queues
    queue_busy = [q._busy_until for q in queues]

    slice_hits = [0] * num_slices
    slice_misses = [0] * num_slices
    slice_inserts = [0] * num_slices
    slice_evicts = [0] * num_slices
    # [l2_hits, l2_misses, messages, total_hops, walks]
    totals = [0, 0, 0, 0, 0]

    def transaction(
        core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        home = page_number % num_slices
        # symmetric: also the return leg
        latency = hop_rows[core][home] * cycles_per_hop
        starts = read_starts[home]
        start = now + latency
        arrival = start
        while starts.get(start, 0) >= num_read:
            start += 1
        starts[start] = starts.get(start, 0) + 1
        if start != arrival:
            read_ports[home].conflict_cycles += start - arrival
        lookup_done = start + lookup_cycles
        hops = hop_rows[core][home]
        if size != PAGE_1G:
            sets = slice_sets[home]
            set_idx = (page_number >> shard_shift) % shard_num_sets
            cache_set = sets[set_idx]
            if cache_set is None:
                cache_set = sets[set_idx] = make_set(shard_ways)
            key = (asid, size, page_number)
            if key in cache_set:
                cache_set.move_to_end(key)
                slice_hits[home] += 1
                totals[0] += 1
                totals[2] += 2  # request + response
                totals[3] += 2 * hops
                access = lookup_done + latency - now
                if overlap_off:
                    return access
                return int(access * visible)
        else:
            cache_set = None
        # Miss: reply to the requester, walk there, fill back to home.
        slice_misses[home] += 1
        totals[1] += 1
        totals[2] += 3  # request + miss reply + fill
        totals[3] += 3 * hops
        miss_reply = lookup_done + latency
        # Inlined System._walk_at: latency-only walk plus the two-walker
        # admit (ties pick walker 0, exactly WalkerQueue.admit's min).
        cycles = do_walk(core, asid, size, page_number, miss_reply)
        totals[4] += 1
        busy = queue_busy[core]
        if busy[0] <= busy[1]:
            walker_slot = 0
            avail = busy[0]
        else:
            walker_slot = 1
            avail = busy[1]
        if avail > miss_reply:
            queue = queues[core]
            queue.total_queue_cycles += avail - miss_reply
            queue.queued_walks += 1
        else:
            avail = miss_reply
        walk_done = avail + cycles
        busy[walker_slot] = walk_done
        wstarts = write_starts[home]
        wstart = walk_done
        while wstarts.get(wstart, 0) >= num_write:
            wstart += 1
        wstarts[wstart] = wstarts.get(wstart, 0) + 1
        if wstart != walk_done:
            write_ports[home].conflict_cycles += wstart - walk_done
        if cache_set is not None:  # 1GB translations are never cached
            if len(cache_set) >= shard_ways:
                cache_set.popitem(last=False)
                slice_evicts[home] += 1
            cache_set[key] = None
            slice_inserts[home] += 1
        walk_cycles = walk_done - miss_reply
        if overlap_off:
            return miss_reply - now + walk_cycles
        return int((miss_reply - now) * visible) + walk_cycles

    def finalize() -> None:
        for i, shard in enumerate(shared.shards):
            shard.hits += slice_hits[i]
            shard.misses += slice_misses[i]
            shard.insertions += slice_inserts[i]
            shard.evictions += slice_evicts[i]
        stats = system.stats
        stats.l2_hits += totals[0]
        stats.l2_misses += totals[1]
        stats.walks += totals[4]
        network = system.network
        network.messages += totals[2]
        network.total_hops += totals[3]

    return transaction, finalize


# ----------------------------------------------------------------------
# State comparison


def _array_state(array):
    """Each set's residents in order (plus ghosts and ARC's target) and
    the counters.  Falsy sets equal fresh ones, so they count as unbuilt."""
    sets = {
        index: _set_state(cache_set)
        for index, cache_set in enumerate(array._sets)
        if cache_set
    }
    return sets, array.hits, array.misses, array.insertions, array.evictions


def _plain(value):
    """Containers as dicts and lists, sets sorted: compared by content."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _network_state(network):
    """Counters and reservation state (NOCSTAR's ``_busy``/``_held``,
    SMART/bus/fbfly occupancy, observed link traversals)."""
    if network is None:
        return None
    return {
        name: _plain(value)
        for name, value in vars(network).items()
        if isinstance(value, (int, float, dict, set))
    }


def _walker_state(system):
    walker = system.walker
    state = [walker.walks, system.page_table.pages_mapped]
    if isinstance(walker, PageTableWalker):
        caches = system.caches
        state += [
            dict(walker.level_hits),
            [list(pwc) for pwc in walker.pwcs],
            [
                ({i: list(s.items()) for i, s in c._sets.items()},
                 c.hits, c.misses)
                for c in caches.l1 + caches.l2 + [caches.llc]
            ],
            caches.dram_accesses,
        ]
    state.append([
        (list(q._busy_until), q.queued_walks, q.total_queue_cycles)
        for q in system.walker_queues
    ])
    return state


def snapshot(system):
    """Everything an L2 transaction can change."""
    ports = []
    if system.shared_l2 is not None:
        arrays = system.shared_l2.shards
        ports = [
            (dict(p._starts), p.conflict_cycles)
            for p in system.shared_l2.read_ports + system.shared_l2.write_ports
        ]
    else:
        arrays = [l2.array for l2 in system.private_l2]
    inj = system.faults
    sink = system.sink
    return dict(
        stats=dict(vars(system.stats)),
        tlbs=[_array_state(array) for array in arrays],
        ports=ports,
        walker=_walker_state(system),
        network=_network_state(system.network),
        faults=None if inj is None else (
            {k: v for k, v in vars(inj).items() if isinstance(v, int)},
            inj.rng.getstate(),
        ),
        prefetcher=system.prefetcher.issued,
        pending=list(system.pending_penalty),
        intervals=list(system.intervals),
        timeline=system.timeline and list(system.timeline),
        metrics=sink.registry.snapshot() if sink.enabled else None,
        events=sink.trace.to_records() if sink.enabled else None,
    )


# ----------------------------------------------------------------------
# Against the method chain

SCHEMES = {
    "private": cfg.private,
    "monolithic-mesh": cfg.monolithic,
    "monolithic-smart": lambda n: cfg.monolithic(n, noc=cfg.SMART),
    "monolithic-fixed": lambda n: cfg.monolithic(n, fixed_latency=16),
    "distributed-mesh": cfg.distributed,
    "distributed-bus": lambda n: cfg.distributed(n, noc=cfg.BUS),
    "distributed-fbfly": lambda n: cfg.distributed(n, noc=cfg.FBFLY_NARROW),
    "nocstar": cfg.nocstar,
    "nocstar-round-trip": lambda n: cfg.nocstar(
        n, config=NocstarConfig(acquire=ROUND_TRIP)
    ),
    "nocstar-ideal": cfg.nocstar_ideal,
    "ideal": cfg.ideal,
}

#: Optional config knobs, each drawn on or off.  ``tiny`` L2s (two
#: ways, a few sets) overflow within a short sequence.
EXTRAS = {
    "tiny": dict(entries_per_core=16, l2_ways=2),
    "prefetch": dict(prefetch_distances=(1,)),
    "remote-ptw": dict(ptw_policy=cfg.PTW_REMOTE),
    "qos": dict(qos_way_quota=2),
    "fixed-walker": dict(ptw_fixed=20),
    "overlap-0": dict(translation_overlap=0.0),
    "xor-fold": dict(slice_indexing="xor-fold"),
}


def _fault_plan(n, kind):
    if kind == "partition":
        # Every link at tile 0 dead: requests to or from it degrade.
        links = tuple(link for link in MeshTopology(n).all_links() if 0 in link)
        return FaultPlan(num_tiles=n, failed_links=links)
    return FaultPlan(
        num_tiles=n, failed_links=((0, 1),), failed_slices=(2,),
        arbiter_drop_prob=0.2, walker_slowdown=1.5, seed=5,
    )


# Pages k*2048 + j share a set in every array (k) and spread over a few
# sets and homes (j): sets overflow, so policies evict and keep ghosts.
_PAGE = st.builds(
    lambda k, j: k * 2048 + j, st.integers(0, 11), st.integers(0, 5)
)
_OPS = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.integers(0, 2),
        st.sampled_from([PAGE_4K, PAGE_4K, PAGE_2M, PAGE_1G]),
        _PAGE,
        # Out of order, as the engine's quantum allows; bursts in a few
        # cycles contend for ports, links and walkers.
        st.one_of(st.integers(0, 4), st.integers(0, 4000)),
    ),
    min_size=5,
    max_size=40,
)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@settings(max_examples=40, deadline=None)
@given(
    cores=st.sampled_from([4, 16]),
    policy=st.sampled_from(["lru", "arc", "twoq"]),
    arbitration=st.sampled_from([FIFO, PRIORITY]),
    extras=st.sets(st.sampled_from(sorted(EXTRAS))),
    faults=st.sampled_from([None, "mixed", "partition"]),
    observed=st.booleans(),
    intervals=st.booleans(),
    timeline=st.booleans(),
    ops=_OPS,
)
def test_transaction_matches_the_method_chain(
    scheme, cores, policy, arbitration, extras, faults, observed, intervals,
    timeline, ops,
):
    overrides = dict(policy=policy, arbitration=arbitration)
    for name in extras:
        overrides.update(EXTRAS[name])
    config = replace(SCHEMES[scheme](cores), **overrides)

    def build(system_cls):
        return system_cls(
            config,
            record_intervals=intervals,
            timeline=[] if timeline else None,
            sink=MetricsSink(trace=EventTrace()) if observed else NULL_SINK,
            faults=faults and _fault_plan(cores, faults),
        )

    system, chain = build(System), build(ChainSystem)
    for core, asid, size, page_number, now in ops:
        core %= cores
        stall = system.l2_transaction(core, asid, size, page_number, now)
        assert stall == chain.l2_transaction(core, asid, size, page_number, now)
        assert snapshot(system) == snapshot(chain)


@pytest.mark.parametrize("fixed_walker", [False, True])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_bursts_on_one_home_match_the_method_chain(scheme, fixed_walker):
    """Every core misses on one home within two cycles, then half of
    them hit: read and write ports, walkers and links all contend."""
    config = SCHEMES[scheme](16)
    if fixed_walker:
        config = replace(config, **EXTRAS["fixed-walker"])
    system, chain = System(config), ChainSystem(config)
    for round_ in range(2):
        for core in range(16):
            page_number = 16 * (core % (16 >> round_)) + 3  # home 3
            args = (core, 1, PAGE_4K, page_number, 10 * round_ + core % 2)
            assert system.l2_transaction(*args) == chain.l2_transaction(*args)
            assert snapshot(system) == snapshot(chain)


@pytest.mark.parametrize("reference", [False, True])
def test_reference_mode_transaction_matches_the_method_chain(
    reference, monkeypatch
):
    """The reference switch leaves the transaction as it is: under
    either setting every scheme routes on the shared tables and matches
    the method chain."""
    if reference:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
    for scheme in sorted(SCHEMES):
        config = SCHEMES[scheme](16)
        system, chain = System(config), ChainSystem(config)
        assert system.routes is chain.routes is shared_route_cache(16)
        for i in range(60):
            args = (i * 7 % 16, i % 2, PAGE_4K, i * 37 % 300, i * 13 % 900)
            assert system.l2_transaction(*args) == chain.l2_transaction(*args)
        assert snapshot(system) == snapshot(chain)


# ----------------------------------------------------------------------
# Against the lean twin


@settings(max_examples=60, deadline=None)
@given(
    cores=st.sampled_from([4, 16]),
    extras=st.sets(st.sampled_from(["fixed-walker", "overlap-0", "tiny"])),
    ops=_OPS,
)
def test_transaction_matches_the_lean_twin(cores, extras, ops):
    """In the twin's gate (unobserved, fault-free mesh-distributed LRU)
    stalls and all live state match after every call; the counters the
    twin folds in at ``finalize`` match after it."""
    overrides = {}
    for name in extras:
        overrides.update(EXTRAS[name])
    config = replace(cfg.distributed(cores), **overrides)
    system, twin = System(config), System(config)
    lean, finalize = make_lean_transaction(twin, twin.sink)
    for core, asid, size, page_number, now in ops:
        core %= cores
        stall = system.l2_transaction(core, asid, size, page_number, now)
        assert stall == lean(core, asid, size, page_number, now)
        ours, theirs = snapshot(system), snapshot(twin)
        assert [t[0] for t in ours["tlbs"]] == [t[0] for t in theirs["tlbs"]]
        for key in ("ports", "walker", "pending"):
            assert ours[key] == theirs[key]
    finalize()
    assert snapshot(system) == snapshot(twin)
