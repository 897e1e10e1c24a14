"""The simulated machine: TLB hierarchy + interconnect + walkers.

One :class:`System` instance models a whole chip for one configuration.
The engine drives it with trace records; everything below the L1 TLB
probe happens against explicit per-cycle reservation state (link/port
occupancy maps, walker queues), which is how contention becomes
latency.  An L1 miss is resolved by :meth:`System.l2_transaction`,
which delegates to one closure built at construction (private L2s, or
shared slices and banks): it binds the live structures into locals and
runs the common case on tables — home by arithmetic, contention-free
mesh legs from the route cache's hop rows, set probes through the
replacement policy state — while ports, walkers and every rarer shape
(faults, observation, prefetch, remote walks, priority ports, QoS
quotas, the other interconnects) are calls into their one model.
Shootdowns and flushes are methods of their own.

Timing of a remote NOCSTAR access follows Fig 10: path setup (1 cycle),
single-cycle traversal, slice port + SRAM lookup, speculative response
path setup overlapped with the lookup, single-cycle response traversal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ROUND_TRIP
from repro.core.indexing import get_indexer
from repro.core.nocstar import NocstarInterconnect
from repro.energy.components import (
    ARBITERS_POWER_MW,
    SWITCH_POWER_MW,
)
from repro.energy.model import EnergyModel
from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.mem import sram
from repro.mem.cache import CacheHierarchy
from repro.noc.bus import BusNetwork
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.mesh import ContentionFreeMesh, coherence_cycles
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology
from repro.obs import NULL_SINK
from repro.sim import configs as cfg
from repro.tlb.l1 import L1Tlb, L1TlbConfig
from repro.tlb.l2_private import L2TlbConfig, PrivateL2Tlb
from repro.tlb.l2_shared import (
    PREFETCH_CLASS,
    PRIORITY,
    WALK_CLASS,
    DistributedSharedTlb,
    MonolithicSharedTlb,
)
from repro.tlb.prefetch import SequentialPrefetcher
from repro.tlb.shootdown import InvalidationController
from repro.tlb.stats import TlbStats
from repro.vm.address import PAGE_1G
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker, WalkerQueue

#: Leakage of one buffered mesh router / SMART router, mW (documented
#: modelling constants; see DESIGN.md energy substitution).
MESH_ROUTER_MW = 3.0
SMART_ROUTER_MW = 3.4
#: Fixed cost of taking a shootdown IPI on a core (handler entry/exit).
IPI_CYCLES = 30
#: Cache-disruption penalty charged to a core per walk another core's
#: request executed on it (remote-PTW pollution, §V Fig 17).
POLLUTION_CYCLES_PER_FILL = 6


class System:
    """One simulated chip."""

    def __init__(
        self,
        config: cfg.SystemConfig,
        record_intervals: bool = False,
        timeline: Optional[List[Tuple[str, int, int]]] = None,
        sink=NULL_SINK,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        n = config.num_cores
        self.topology = MeshTopology(n)
        #: Precomputed fault-free route/latency tables, shared across
        #: systems of the same size and by both drive loops.
        self.routes = shared_route_cache(n)
        #: Runtime fault state; None keeps every component on its exact
        #: fault-free code path (an empty plan is normalised to None by
        #: the engine, so rate-0 runs are bit-identical to plain runs).
        self.faults: Optional[FaultInjector] = None
        if faults is not None and not faults.is_empty:
            self.faults = FaultInjector(faults, self.topology, sink=sink)
        # The mesh and SMART models' one route source (see
        # repro.noc.route_cache): detours once links have failed.
        router = self.routes
        if self.faults is not None and self.faults.router.dead:
            router = self.faults.router
        #: True when the active network routes around failed links (so
        #: an unreachable pair must be degraded before issuing).
        self._network_fault_aware = False
        l1_config = L1TlbConfig()
        if config.l1_scale != 1.0:
            l1_config = l1_config.scaled(config.l1_scale)
        self.l1s = [L1Tlb(l1_config) for _ in range(n)]
        self.record_intervals = record_intervals
        self.intervals: List[Tuple[int, int, int]] = []
        self.timeline = timeline
        self.sink = sink
        #: Bound event emitter, or None when unobserved — hot paths
        #: then skip building kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.stats = TlbStats()

        # --- L2 organisation -------------------------------------------
        self.private_l2: List[PrivateL2Tlb] = []
        self.shared_l2 = None
        self.network = None
        self.mono_tile = self.topology.edge_tile
        scheme = config.scheme
        if scheme == cfg.PRIVATE:
            l2cfg = L2TlbConfig(
                config.entries_per_core, config.l2_ways, policy=config.policy
            )
            self.private_l2 = [PrivateL2Tlb(l2cfg) for _ in range(n)]
            self.l2_lookup_cycles = self.private_l2[0].lookup_cycles
        elif scheme == cfg.MONOLITHIC:
            self.shared_l2 = MonolithicSharedTlb(
                config.entries_per_core * n, config.banks, config.l2_ways,
                indexer=get_indexer(config.slice_indexing),
                policy=config.policy, arbitration=config.arbitration,
            )
            if config.fixed_shared_latency is not None:
                self.l2_lookup_cycles = config.fixed_shared_latency
            else:
                self.l2_lookup_cycles = self.shared_l2.lookup_cycles
            if config.interconnect == cfg.MESH:
                self.network = ContentionFreeMesh(self.topology, router)
                self._network_fault_aware = True
            elif config.interconnect == cfg.SMART:
                self.network = SmartNetwork(
                    self.topology, router, config.smart_hpc, sink=sink
                )
                self._network_fault_aware = True
        else:  # distributed / nocstar / ideal
            self.shared_l2 = DistributedSharedTlb(
                n, config.entries_per_core, config.l2_ways,
                indexer=get_indexer(config.slice_indexing),
                policy=config.policy, arbitration=config.arbitration,
            )
            self.l2_lookup_cycles = self.shared_l2.lookup_cycles
            if scheme == cfg.DISTRIBUTED:
                if config.interconnect == cfg.BUS:
                    self.network = BusNetwork(self.topology)
                elif config.interconnect == cfg.FBFLY_WIDE:
                    self.network = FlattenedButterfly(self.topology)
                elif config.interconnect == cfg.FBFLY_NARROW:
                    self.network = FlattenedButterfly(
                        self.topology, narrow=True
                    )
                else:
                    self.network = ContentionFreeMesh(self.topology, router)
                    self._network_fault_aware = True
            elif scheme == cfg.NOCSTAR:
                # Faults reach a setup only through dead links or arbiter
                # drops, and never in the idealised fabric, which
                # abstracts links away; any other plan leaves the fabric
                # on the fault-free arbitration, which has no setup
                # timeout.
                inj = self.faults
                reaches = inj is not None and not config.nocstar_ideal and (
                    inj.router.dead or inj.plan.arbiter_drop_prob > 0.0
                )
                self.network = NocstarInterconnect(
                    self.topology, config.nocstar, sink=sink,
                    faults=inj if reaches else None,
                )
                self._network_fault_aware = not config.nocstar_ideal

        self._is_monolithic = scheme == cfg.MONOLITHIC
        self._is_nocstar = isinstance(self.network, NocstarInterconnect)
        #: The reservation stores that grow with run length, each with
        #: ``retire(horizon)``: the slice or bank port sets, and a
        #: SMART, bus or flattened-butterfly network's link bookings.
        #: NOCSTAR keeps its cycle masks (DESIGN.md); a private run has
        #: none, and the drive loops then never call :meth:`retire`.
        self.retirable: List = []
        if self.shared_l2 is not None:
            self.retirable += (
                self.shared_l2.read_ports + self.shared_l2.write_ports
            )
        if isinstance(
            self.network, (SmartNetwork, BusNetwork, FlattenedButterfly)
        ):
            self.retirable.append(self.network)
        #: The hop rows the transaction times contention-free mesh legs
        #: from (hops x cycles per hop, counting the messages and hops
        #: itself), or None when every leg calls ``network.send``.  Rows
        #: serve a mesh on the fault-free routes whose per-link counts
        #: no observer reads; detours and observed runs walk the path.
        self.mesh_hop_rows = None
        if (
            isinstance(self.network, ContentionFreeMesh)
            and router is self.routes
            and not sink.enabled
        ):
            self.mesh_hop_rows = self.routes.hops

        # --- Walkers ------------------------------------------------------
        self.page_table = PageTable()
        if config.ptw_fixed is not None:
            self.walker = FixedLatencyWalker(
                self.page_table, config.ptw_fixed, sink=sink
            )
        else:
            self.caches = CacheHierarchy(n)
            self.walker = PageTableWalker(
                self.page_table, self.caches, n, sink=sink
            )
        self.walker_queues = [WalkerQueue() for _ in range(n)]

        if config.qos_way_quota is not None and self.shared_l2 is not None:
            for shard in self.shared_l2.shards:
                shard.way_quota = config.qos_way_quota

        # --- Prefetch / shootdown -----------------------------------------
        self.prefetcher = SequentialPrefetcher(config.prefetch_distances)
        self.invalidation = InvalidationController(
            n, min(config.leader_granularity, n)
        )
        #: Stall cycles to apply to each core at its next resume.
        self.pending_penalty = [0] * n
        #: Fraction of access latency the OoO core hides (see configs).
        self._visible = 1.0 - config.translation_overlap
        #: The L2 transaction, built once over the structures above.
        #: Its closures bind the structures, never ``self``, so a System
        #: is freed by reference counting like any other object.
        if scheme == cfg.PRIVATE:
            self._transaction = self._build_private_transaction()
        else:
            self._transaction = self._build_shared_transaction()

    # ------------------------------------------------------------------
    # Translation path below the L1 probe

    def l2_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Resolve an L1 TLB miss; returns the stall in cycles.

        The caller (a drive loop) has already probed the L1 and inserts
        the translation into it afterwards.  The work is done by the
        closure built at construction; every drive loop enters here.
        """
        return self._transaction(core, asid, size, page_number, now)

    def retire(self, horizon: int) -> None:
        """Drop every booking below ``horizon`` from the stores in
        :attr:`retirable`.

        The drive loop guarantees that no later send or reservation
        probes a cycle below ``horizon``; each store keeps the running
        totals its counters need.
        """
        for store in self.retirable:
            store.retire(horizon)

    def _build_walk(self):
        """A requester-side walk: ``walk(core, asid, size, page_number,
        at)`` queues it at ``core``'s walkers and returns when it
        completes."""
        stats = self.stats
        walk_cycles = self.walker.walk_cycles
        inj = self.faults
        queues = self.walker_queues

        def walk(
            core: int, asid: int, size: int, page_number: int, at: int
        ) -> int:
            stats.walks += 1
            latency = walk_cycles(core, asid, size, page_number, at)
            if inj is not None:
                latency = inj.walk_latency(latency)
            return queues[core].admit(at, latency)

        return walk

    def _build_private_transaction(self):
        """The transaction of per-core private L2s: probe, or walk and fill."""
        stats = self.stats
        arrays = [l2.array for l2 in self.private_l2]
        # Private arrays build every set eagerly: no set is ever None.
        sets_of = [array._sets for array in arrays]
        shift = arrays[0].index_shift
        num_sets = arrays[0].num_sets
        lookup_cycles = self.l2_lookup_cycles
        visible = self._visible
        overlap_off = visible == 1.0
        hit_stall = (
            lookup_cycles if overlap_off else int(lookup_cycles * visible)
        )
        event = self._event
        walk = self._build_walk()
        prefetch = self._build_prefetch()

        def transaction(
            core: int, asid: int, size: int, page_number: int, now: int
        ) -> int:
            array = arrays[core]
            lookup_done = now + lookup_cycles
            cache_set = None
            hit = False
            if size != PAGE_1G:  # 1GB translations are never cached at L2
                cache_set = sets_of[core][(page_number >> shift) % num_sets]
                key = (asid, size, page_number)
                hit = key in cache_set
            if event is not None:
                event(lookup_done, "l2_lookup", core=core, slice=core, hit=hit)
            if hit:
                cache_set.touch(key)
                array.hits += 1
                stats.l2_hits += 1
                return hit_stall
            array.misses += 1
            stats.l2_misses += 1
            done = walk(core, asid, size, page_number, lookup_done)
            if cache_set is not None:
                if cache_set.admit(key) is not None:
                    array.evictions += 1
                array.insertions += 1
            if prefetch is not None:
                prefetch(core, asid, size, page_number, done)
            if overlap_off:
                return lookup_cycles + done - lookup_done
            return int(lookup_cycles * visible) + done - lookup_done

        return transaction

    def _build_shared_transaction(self):
        """The transaction of shared slices/banks (Fig 10's timing).

        Request leg to the home slice (the monolith's edge tile), port
        reservation and SRAM probe, then either the response leg (hit,
        or a remote walk at the home tile) or the miss reply, a walk at
        the requester and a fire-and-forget fill back to the slice.
        The common case runs on tables: the modulo home by arithmetic,
        contention-free mesh legs from :attr:`mesh_hop_rows`, set
        probes through the policy state.  Everything else is a guarded
        call into its one model.
        """
        config = self.config
        stats = self.stats
        shared = self.shared_l2
        shards = shared.shards
        sets_of = [shard._sets for shard in shards]
        shift = shards[0].index_shift
        num_sets = shards[0].num_sets
        ways = shards[0].ways
        make_set = shards[0]._state_cls
        num_shards = shared.num_shards
        home_of = None if config.slice_indexing == "modulo" else shared.home
        quota = config.qos_way_quota
        read_ports = shared.read_ports
        write_ports = shared.write_ports
        klass = WALK_CLASS if config.arbitration == PRIORITY else 0
        lookup_cycles = self.l2_lookup_cycles
        visible = self._visible
        overlap_off = visible == 1.0
        event = self._event
        timeline = self.timeline
        intervals = self.intervals if self.record_intervals else None
        inj = self.faults
        fault_aware = self._network_fault_aware
        walk = self._build_walk()
        walker = self.walker
        queues = self.walker_queues
        pending = self.pending_penalty
        prefetch = self._build_prefetch()
        monolithic = self._is_monolithic
        mono_tile = self.mono_tile
        remote_walks = config.ptw_policy == cfg.PTW_REMOTE and not monolithic
        # The monolith sits beyond the mesh edge: its legs cross the
        # H-tree in each direction.
        ingress = MonolithicSharedTlb.INGRESS_CYCLES if monolithic else 0
        network = self.network
        send = network.send if network is not None else None
        # Contention-free mesh legs come straight from the hop rows when
        # the System allows it.  Manhattan routes are symmetric, so the
        # requester's row gives both legs.
        hop_rows = self.mesh_hop_rows
        flat_mesh = hop_rows is not None
        if flat_mesh:
            cycles_per_hop = network.cycles_per_hop
        nocstar = self._is_nocstar
        ideal = nocstar and config.nocstar_ideal
        ideal_send = self._build_ideal_send() if ideal else None
        round_trip = (
            nocstar and not ideal and config.nocstar.acquire == ROUND_TRIP
        )

        def transaction(
            core: int, asid: int, size: int, page_number: int, now: int
        ) -> int:
            home = (
                page_number % num_shards if home_of is None
                else home_of(page_number, asid)
            )
            dst = mono_tile if monolithic else home
            if inj is not None and (
                (not monolithic and inj.slice_dead(home))
                or (
                    core != dst
                    and fault_aware
                    and not inj.router.reachable_round_trip(core, dst)
                )
            ):
                # Degrade rather than hang: a dead home slice cannot
                # serve the lookup and a partitioned pair cannot finish
                # the round trip, so the request walks locally (no
                # shared fill: the slice would never receive it).
                stats.l2_misses += 1
                inj.record_degraded_walk(now, core, dst)
                walk_done = walk(core, asid, size, page_number, now)
                if timeline is not None:
                    timeline.append(("walk", now, walk_done))
                return walk_done - now

            # Request leg.
            held = ()
            if flat_mesh:
                hops = hop_rows[core][dst]
                leg = hops * cycles_per_hop + ingress
                arrival = now + leg
            elif ideal_send is not None:
                hops, cycles = ideal_send(core, dst)
                arrival = now + 1 + cycles if hops else now
            elif round_trip:
                traversal = send(core, dst, now, hold=True)
                arrival = traversal.ready
                held = traversal.links
            elif nocstar:
                arrival = send(core, dst, now).ready
            elif send is not None:
                arrival = send(core, dst, now).arrival + ingress
            else:
                arrival = now  # ideal zero-latency / fixed-latency

            # Slice/bank read port + SRAM lookup.
            start = read_ports[home].reserve(arrival, klass)
            lookup_done = start + lookup_cycles
            if intervals is not None:
                intervals.append((arrival, lookup_done, home))
            if timeline is not None:
                timeline.append(("request-network", now, arrival))
                timeline.append(("slice-lookup", start, lookup_done))
            shard = shards[home]
            cache_set = None
            hit = False
            if size != PAGE_1G:  # 1GB translations are never cached at L2
                sets = sets_of[home]
                index = (page_number >> shift) % num_sets
                cache_set = sets[index]
                if cache_set is None:  # lazily built
                    cache_set = sets[index] = make_set(ways)
                key = (asid, size, page_number)
                hit = key in cache_set
            if hit:
                cache_set.touch(key)
                shard.hits += 1
                stats.l2_hits += 1
            else:
                shard.misses += 1
                stats.l2_misses += 1
            if event is not None:
                event(lookup_done, "l2_lookup", core=core, slice=home, hit=hit)

            walk_cycles = 0
            ready_at = lookup_done
            if not hit and remote_walks:
                # The home tile walks, polluting its own caches, and
                # fills its slice before responding.
                result = walker.walk(dst, asid, size, page_number, lookup_done)
                stats.walks += 1
                latency = result.latency
                if inj is not None:
                    latency = inj.walk_latency(latency)
                walk_done = queues[dst].admit(lookup_done, latency)
                if dst != core and config.ptw_fixed is None:
                    pending[dst] += result.pollution * POLLUTION_CYCLES_PER_FILL
                if cache_set is not None:
                    shard.insert(asid, size, page_number)
                write_ports[home].reserve(walk_done, klass)
                walk_cycles = walk_done - lookup_done
                ready_at = walk_done

            # Response leg (or, on a requester-side miss, the miss reply).
            if flat_mesh:
                ready = ready_at + leg
                network.messages += 2  # request and response
                network.total_hops += 2 * hops
            elif ideal_send is not None:
                ready = ready_at + ideal_send(dst, core)[1]
            elif held:
                # Round-trip acquisition: the path is still ours.
                ready = ready_at + network.traversal_cycles(len(held))
                network.release(held, ready)
                network.messages += 1
                network.total_hops += len(held)
            elif nocstar:
                ready = send(dst, core, ready_at, speculative_setup=True).ready
            elif send is not None:
                ready = send(dst, core, ready_at).arrival + ingress
            else:
                ready = ready_at

            if hit or remote_walks:
                if timeline is not None:
                    timeline.append(("response-network", ready_at, ready))
                if prefetch is not None and not hit:
                    prefetch(core, asid, size, page_number, ready)
                access = ready - now - walk_cycles
                if overlap_off:
                    return access + walk_cycles
                return int(access * visible) + walk_cycles

            # The requester walks, then sends the fill to the home slice
            # (on the real fabric even under NOCSTAR(ideal): DESIGN.md).
            walk_done = walk(core, asid, size, page_number, ready)
            if flat_mesh:
                network.messages += 1
                network.total_hops += hops
            elif send is not None:
                send(core, dst, walk_done)
            write_ports[home].reserve(walk_done, klass)
            if cache_set is not None:
                if quota is not None:
                    shard.insert(asid, size, page_number)
                else:
                    if cache_set.admit(key) is not None:
                        shard.evictions += 1
                    shard.insertions += 1
            if prefetch is not None:
                prefetch(core, asid, size, page_number, walk_done)
            if timeline is not None:
                timeline.append(("walk", ready, walk_done))
            if overlap_off:
                return walk_done - now
            return int((ready - now) * visible) + walk_done - ready

        return transaction

    def _build_ideal_send(self):
        """NOCSTAR(ideal)'s legs: guaranteed-free links, so a message
        is its uncontended traversal; returns ``(hops, cycles)``."""
        network = self.network
        traversal_cycles = network.traversal_cycles
        hop_rows = self.routes.hops

        def ideal_send(src: int, dst: int) -> Tuple[int, int]:
            hops = hop_rows[src][dst]
            network.messages += 1
            network.total_hops += hops
            if hops:
                network.uncontended_messages += 1
            return hops, traversal_cycles(hops)

        return ideal_send

    def _build_prefetch(self):
        """Sequential prefetch after an L2 miss, or None when disabled.

        ``prefetch(core, asid, size, page_number, when)`` installs the
        missing neighbour translations: in the requester's private L2
        (probed with a counted lookup), or in their home slices (probed
        without side effects, each fill taking a write-port slot).  Each
        one needs its own page walk, which occupies (but does not stall
        on) the requester's walkers — this is what makes over-aggressive
        distances (+/-3) pollute, as the paper observed.
        """
        prefetcher = self.prefetcher
        if not prefetcher.enabled:
            return None
        stats = self.stats
        walk_cycles = self.walker.walk_cycles
        inj = self.faults
        queues = self.walker_queues
        private_l2 = self.private_l2
        shared = self.shared_l2
        klass = PREFETCH_CLASS if self.config.arbitration == PRIORITY else 0

        def prefetch(
            core: int, asid: int, size: int, page_number: int, when: int
        ) -> None:
            for pa, ps, pp in prefetcher.candidates(asid, size, page_number):
                if shared is None:
                    l2 = private_l2[core]
                    if l2.lookup_page_number(pa, ps, pp):
                        continue
                elif shared.probe_page_number(pa, ps, pp):
                    continue
                latency = walk_cycles(core, pa, ps, pp, when)
                if inj is not None:
                    latency = inj.walk_latency(latency)
                queues[core].admit(when, latency)
                if shared is None:
                    l2.insert_page_number(pa, ps, pp)
                else:
                    shared.insert_page_number(pa, ps, pp)
                    shared.reserve_write(shared.home(pp, pa), when, klass)
                stats.prefetches += 1

        return prefetch

    # ------------------------------------------------------------------
    # Shootdowns and storms

    def apply_shootdown(
        self, initiator: int, entries: List[Tuple[int, int, int]], now: int
    ) -> None:
        """One remapping event: IPI all cores, invalidate L1s and L2.

        Charges every core the IPI handler cost; the initiator
        additionally waits for the L2 invalidations to complete, which
        is where leader policy and slice-port congestion matter.

        The entries are bucketed by set once per array geometry (every
        core's L1s, every private L2, every slice), so each TLB visits
        only the sets the entries map to and skips those holding
        nothing; shared entries are bucketed by home slice once.
        """
        self.sink.event(
            now, "shootdown", initiator=initiator, entries=len(entries)
        )
        pending = self.pending_penalty
        l1_groups = self.l1s[0].group(entries)
        for core, l1 in enumerate(self.l1s):
            l1.invalidate_grouped(l1_groups)
            pending[core] += IPI_CYCLES
        if self.config.scheme == cfg.PRIVATE:
            l2_groups = self.private_l2[0].array.group(entries)
            for core, l2 in enumerate(self.private_l2):
                l2.array.invalidate_grouped(l2_groups)
                pending[core] += len(entries)
            return
        by_home = self.shared_l2.group_by_home(entries)
        plan = self.invalidation.plan(initiator, sorted(by_home))
        self.stats.shootdown_messages += len(plan.messages)
        completion = now
        sender_done: Dict[int, int] = {}
        for message in plan.messages:
            dst_tile = self.mono_tile if self._is_monolithic else message.dst
            if message.kind == "relay":
                dst_tile = message.dst
            arrival = self._plain_send(message.src, dst_tile, now)
            if message.kind == "invalidate":
                finish = self.shared_l2.write_ports[message.dst].reserve_many(
                    arrival, len(by_home[message.dst])
                )
            else:
                finish = arrival
            # The IPI handler issues all its invalidates, then spins
            # until the last one is acknowledged — the congestion that
            # penalises the naive every-core-relays policy (Fig 16R).
            sender_done[message.src] = max(
                sender_done.get(message.src, now), finish
            )
            completion = max(completion, finish)
        for sender, done in sender_done.items():
            if sender != initiator:
                pending[sender] += done - now
        self.shared_l2.invalidate_grouped(by_home)
        pending[initiator] += completion - now

    def _plain_send(self, src: int, dst: int, now: int) -> int:
        """Deliver a shootdown relay/invalidate message.

        IPI and invalidation traffic rides the chip's primary coherence
        NoC (a buffered mesh), not the latency-tuned TLB sideband — a
        flood of simultaneous invalidates would otherwise jam the
        circuit-switched fabric's all-or-nothing arbitration.  Their
        congestion shows up where it belongs: at the slice write ports
        and in the senders' IPI-handler stalls.

        Under fault injection delivery is delegated to the injector:
        the message is routed around dead links and retried with
        backoff on transient drops.  A target partitioned away is
        counted and the message arrives at ``now``, at zero cost; it is
        not skipped, so an invalidate still books the slice's write
        port and drops its entries (a known quirk, kept for byte
        identity; see ROADMAP "Model fixes").  Both paths charge the
        coherence NoC's :func:`~repro.noc.mesh.coherence_cycles`."""
        if self.faults is not None:
            arrival = self.faults.shootdown_send(src, dst, now)
            return now if arrival is None else arrival
        return now + coherence_cycles(self.routes.hops[src][dst])

    def flush_all_tlbs(self) -> None:
        """Full TLB flush (context-switch storms, §V)."""
        for l1 in self.l1s:
            l1.flush()
        if self.private_l2:
            for l2 in self.private_l2:
                l2.flush()
        if self.shared_l2 is not None:
            self.shared_l2.flush()
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    # Bookkeeping

    def static_power_mw(self) -> float:
        config = self.config
        n = config.num_cores
        if config.scheme == cfg.PRIVATE:
            return n * sram.budget(config.entries_per_core).power_mw
        if config.scheme == cfg.MONOLITHIC:
            power = sram.budget(config.entries_per_core * n).power_mw
            if config.interconnect == cfg.SMART:
                power += n * SMART_ROUTER_MW
            elif config.interconnect == cfg.MESH:
                power += n * MESH_ROUTER_MW
            return power
        power = n * sram.budget(config.entries_per_core).power_mw
        if config.scheme == cfg.NOCSTAR:
            power += n * (SWITCH_POWER_MW + ARBITERS_POWER_MW)
        elif config.scheme == cfg.DISTRIBUTED:
            if config.interconnect == cfg.BUS:
                power += n * 0.5  # wire drivers only
            elif config.interconnect in (cfg.FBFLY_WIDE, cfg.FBFLY_NARROW):
                power += n * 2 * MESH_ROUTER_MW  # high-radix crossbars
            else:
                power += n * MESH_ROUTER_MW
        return power

    def finalize_stats(self) -> None:
        """Fold structure counters into the run-level stats."""
        self.stats.l1_hits = sum(l1.hits for l1 in self.l1s)
        self.stats.l1_misses = sum(l1.misses for l1 in self.l1s)

    def finalize_metrics(self, cycles: int) -> None:
        """Publish end-of-run gauges/counters into the metrics sink.

        Called once after :meth:`finalize_stats`; a no-op sink makes
        this free.  Everything here is *derived* from simulation state,
        so publishing it can never perturb timing.
        """
        sink = self.sink
        if not sink.enabled:
            return
        sink.gauge("run.cycles", cycles)
        sink.count("tlb.l1.hits", self.stats.l1_hits)
        sink.count("tlb.l1.misses", self.stats.l1_misses)
        sink.count("tlb.l2.hits", self.stats.l2_hits)
        sink.count("tlb.l2.misses", self.stats.l2_misses)
        sink.count("walk.count", self.stats.walks)
        sink.count("tlb.prefetches", self.stats.prefetches)
        sink.count("shootdown.messages", self.stats.shootdown_messages)
        if self.shared_l2 is not None:
            slices = self.shared_l2.shards
        else:
            slices = [l2.array for l2 in self.private_l2]
        for i, arr in enumerate(slices):
            sink.gauge(f"tlb.slice.{i}.hits", arr.hits)
            sink.gauge(f"tlb.slice.{i}.misses", arr.misses)
            sink.gauge(f"tlb.slice.{i}.occupancy", arr.occupancy)
            sink.gauge(f"tlb.slice.{i}.evictions", arr.evictions)
        sink.count(
            "walk.queued", sum(q.queued_walks for q in self.walker_queues)
        )
        sink.count(
            "walk.queue_cycles",
            sum(q.total_queue_cycles for q in self.walker_queues),
        )
        network = self.network
        if network is not None:
            for name in (
                "messages",
                "total_hops",
                "total_setup_retries",
                "premature_stops",
                "total_queue_cycles",
                "control_requests",
                "uncontended_messages",
                "local_messages",
            ):
                value = getattr(network, name, None)
                if value is not None:
                    sink.count(f"noc.{name}", value)
            busy_fn = getattr(network, "link_busy_cycles", None)
            if busy_fn is not None:
                for (src, dst), busy in busy_fn().items():
                    sink.gauge(f"noc.link.{src}>{dst}.busy_cycles", busy)
                    sink.gauge(
                        f"noc.link.{src}>{dst}.util",
                        busy / cycles if cycles else 0.0,
                    )
        if self.faults is not None:
            self.faults.publish_metrics()
        trace = sink.trace
        if trace is not None:
            sink.gauge("trace.emitted", trace.emitted)
            sink.gauge("trace.dropped", trace.dropped)

    def energy_summary(self, cycles: int) -> Dict[str, float]:
        model = EnergyModel(static_power_mw=self.static_power_mw())
        model.l1_lookup(self.stats.l1_accesses)
        if self.config.scheme == cfg.PRIVATE:
            entries = self.config.entries_per_core
            accesses = sum(l2.accesses for l2 in self.private_l2)
            model.l2_lookup(entries, accesses)
        else:
            if self._is_monolithic:
                entries = self.config.entries_per_core * self.config.num_cores
            else:
                entries = self.config.entries_per_core
            model.l2_lookup(entries, self.shared_l2.accesses)
        if self._is_nocstar:
            hops = self.network.total_hops
            if self.faults is not None:
                # Fallback hops traversed the buffered mesh, not the
                # latchless switches: charge them at the mesh rate.
                fallback = self.faults.fallback_hops
                model.nocstar_hops(hops - fallback)
                model.mesh_hops(fallback)
            else:
                model.nocstar_hops(hops)
            model.control(self.network.control_requests)
        elif self.network is not None:
            model.mesh_hops(self.network.total_hops)
        # Run-level walk energy is charged at the paper's 2TB-footprint
        # rate (the multi-GB page table keeps leaf PTEs effectively
        # uncached), so walk *elimination* carries the energy weight the
        # paper reports in Fig 14 — see EnergyParams.big_footprint_walk_pj.
        total_walks = self.stats.walks + self.stats.prefetches
        model.breakdown.walk_pj += (
            model.params.big_footprint_walk_pj * total_walks
        )
        model.finalize(cycles)
        return model.breakdown.as_dict()

    def network_summary(self) -> Dict[str, float]:
        if self._is_nocstar:
            return {
                "messages": self.network.messages,
                "mean_setup_retries": self.network.mean_setup_retries,
                "no_contention_fraction": self.network.no_contention_fraction,
                "mean_hops": (
                    self.network.total_hops / self.network.messages
                    if self.network.messages
                    else 0.0
                ),
            }
        if self.network is not None:
            messages = self.network.messages
            return {
                "messages": messages,
                "mean_hops": (
                    self.network.total_hops / messages
                    if messages and hasattr(self.network, "total_hops")
                    else 0.0
                ),
            }
        return {}

    def fault_summary(self) -> Optional[Dict[str, int]]:
        """Degradation counters of this run, or None when fault-free."""
        return self.faults.summary() if self.faults is not None else None

    def walk_level_summary(self) -> Dict[str, int]:
        if isinstance(self.walker, PageTableWalker):
            return dict(self.walker.level_hits)
        return {"fixed": self.walker.walks}
