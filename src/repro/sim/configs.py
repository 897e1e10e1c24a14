"""System configurations — Table II plus the ablation variants.

Factory functions build :class:`SystemConfig` values for every target
the paper evaluates:

* ``private``       — per-core 1024-entry L2 TLBs (the baseline);
* ``monolithic``    — 1024 x N entries in one banked structure at the
  chip edge, reached over a multi-hop mesh or a SMART NoC;
* ``distributed``   — one 1024-entry slice per core over a multi-hop
  mesh ("enough buffers and links to prevent link contention", §IV);
* ``nocstar``       — one 920-entry slice per core (area-normalised)
  over the NOCSTAR interconnect;
* ``nocstar_ideal`` — NOCSTAR with a contention-free network (Fig 15);
* ``ideal``         — shared slices with a zero-latency interconnect
  (Fig 12/13/15's "Ideal"; not an infinite TLB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.config import NocstarConfig
from repro.core.indexing import get_indexer
from repro.tlb.l2_private import L2TlbConfig, PrivateL2Tlb
from repro.tlb.l2_shared import (
    FIFO,
    PRIORITY,
    DistributedSharedTlb,
    MonolithicSharedTlb,
)
from repro.tlb.policies import POLICY_NAMES

#: A factory takes a core count (plus overrides) and returns a config.
ConfigFactory = Callable[..., "SystemConfig"]

_CONFIG_REGISTRY: Dict[str, ConfigFactory] = {}


def register_config(name: str, factory: Optional[ConfigFactory] = None):
    """Register a named configuration factory.

    Usable as a decorator (``@register_config("private")``) or a plain
    call (``register_config("monolithic-smart", lambda n, **o: ...)``).
    Names must be unique — duplicates raise ``ValueError`` so two
    modules cannot silently fight over one name.
    """

    def _register(fn: ConfigFactory) -> ConfigFactory:
        if name in _CONFIG_REGISTRY:
            raise ValueError(f"configuration {name!r} is already registered")
        _CONFIG_REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def available_configs() -> Tuple[str, ...]:
    """Every registered configuration name, sorted."""
    return tuple(sorted(_CONFIG_REGISTRY))


def build_config(name: str, num_cores: int, **overrides) -> "SystemConfig":
    """Build a registered configuration by name."""
    try:
        factory = _CONFIG_REGISTRY[name]
    except KeyError:
        known = ", ".join(available_configs())
        raise KeyError(f"unknown config {name!r}; known: {known}") from None
    return factory(num_cores, **overrides)

#: Schemes and interconnect kinds.
PRIVATE = "private"
MONOLITHIC = "monolithic"
DISTRIBUTED = "distributed"
NOCSTAR = "nocstar"
IDEAL = "ideal"

MESH = "mesh"
SMART = "smart"
BUS = "bus"
FBFLY_WIDE = "fbfly-wide"
FBFLY_NARROW = "fbfly-narrow"
ZERO = "zero"

#: Page-table-walk placement (§III-F, Fig 17).
PTW_REQUESTER = "requester"
PTW_REMOTE = "remote"


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated machine."""

    name: str
    num_cores: int
    scheme: str
    interconnect: str = ZERO
    entries_per_core: int = 1024
    l2_ways: int = 8
    monolithic_banks: Optional[int] = None
    #: Fig 4: override the *total* shared access latency (9/11/16/25cc),
    #: replacing SRAM+network modelling with a fixed cost.  Monolithic
    #: only, with no network (``interconnect`` ``zero``).
    fixed_shared_latency: Optional[int] = None
    nocstar: NocstarConfig = field(default_factory=NocstarConfig)
    #: NOCSTAR with guaranteed-free links (Fig 15's NOCSTAR(ideal)).
    nocstar_ideal: bool = False
    ptw_policy: str = PTW_REQUESTER
    #: None = variable walks through the cache hierarchy (Table III).
    ptw_fixed: Optional[int] = None
    prefetch_distances: Tuple[int, ...] = ()
    l1_scale: float = 1.0
    #: Invalidation-leader group size (§III-G); 1 = every core relays.
    leader_granularity: int = 8
    smart_hpc: int = 8
    #: Fraction of the L2 *access* latency (SRAM + interconnect) hidden
    #: by out-of-order execution; page-walk latency is never hidden.
    #: Haswell's OoO window overlaps part of a translation stall with
    #: independent work, which is why the paper's mesh-based shared
    #: TLBs degrade less than a fully-blocking model would predict.
    translation_overlap: float = 0.45
    #: How translations map to slices/banks (§III-A: "optimized indexing
    #: mechanisms can be adopted"): "modulo" (the paper), "xor-fold",
    #: or "asid-mix".  The two folds need a power-of-two shard count.
    #: Ablation: benchmarks/test_ablation_indexing.py.
    slice_indexing: str = "modulo"
    #: QoS extension (the paper's future work for multiprogrammed
    #: interference): cap the ways any single ASID may occupy per shared
    #: set.  None disables partitioning.
    qos_way_quota: Optional[int] = None
    #: L2 replacement policy (repro.tlb.policies registry name).  Applies
    #: to the private/shared L2 level only; L1 arrays stay LRU because
    #: the batched engine's pre-pass replays them through LRU sets.
    policy: str = "lru"
    #: Shared-TLB port arbitration: "fifo" (historical, default) or
    #: "priority" (shootdown > walk > prefetch service classes).
    arbitration: str = FIFO

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"need at least one core (got {self.num_cores})")
        if self.scheme not in (PRIVATE, MONOLITHIC, DISTRIBUTED, NOCSTAR, IDEAL):
            raise ValueError(f"unknown scheme: {self.scheme}")
        if self.ptw_policy not in (PTW_REQUESTER, PTW_REMOTE):
            raise ValueError(f"unknown PTW policy: {self.ptw_policy}")
        if not 0.0 <= self.translation_overlap < 1.0:
            raise ValueError("translation_overlap must be in [0, 1)")
        if self.qos_way_quota is not None and self.qos_way_quota < 1:
            raise ValueError("QoS way quota must be at least one way")
        if self.policy not in POLICY_NAMES:
            known = ", ".join(POLICY_NAMES)
            raise ValueError(
                f"unknown replacement policy {self.policy!r}; known: {known}"
            )
        if self.arbitration not in (FIFO, PRIORITY):
            raise ValueError(f"unknown arbitration mode: {self.arbitration!r}")
        if not (self.l1_scale > 0 and math.isfinite(self.l1_scale)):
            raise ValueError(
                f"l1_scale must be a positive factor, got {self.l1_scale}"
            )
        if self.fixed_shared_latency is not None:
            if self.scheme != MONOLITHIC or self.interconnect != ZERO:
                raise ValueError(
                    "fixed_shared_latency replaces the network, so it needs "
                    f"a monolithic scheme with interconnect {ZERO!r}, not "
                    f"{self.scheme!r} over {self.interconnect!r}"
                )
            if self.fixed_shared_latency < 0:
                raise ValueError(
                    "fixed_shared_latency must be at least 0 cycles, got "
                    f"{self.fixed_shared_latency}"
                )
        if self.monolithic_banks is not None and self.monolithic_banks < 1:
            raise ValueError(
                "monolithic_banks must be at least 1, got "
                f"{self.monolithic_banks}"
            )
        if self.scheme == MONOLITHIC:
            total = self.entries_per_core * self.num_cores
            if total % self.banks:
                raise ValueError(
                    f"monolithic_banks gives {self.banks} banks, which do "
                    f"not divide the monolith's {total} entries"
                )
        if self.slice_indexing in ("xor-fold", "asid-mix"):
            self._check_power_of_two_shards()

    @property
    def banks(self) -> int:
        """The monolith's bank count: ``monolithic_banks``, or when it
        is unset the paper's banking for ``num_cores``."""
        if self.monolithic_banks is None:
            return MonolithicSharedTlb.banks_for(self.num_cores)
        return self.monolithic_banks

    def l2_structures(
        self,
    ) -> Union[List[PrivateL2Tlb], MonolithicSharedTlb, DistributedSharedTlb]:
        """The L2 organisation this configuration names, freshly built:
        one :class:`PrivateL2Tlb` per core, the banked
        :class:`MonolithicSharedTlb`, or one :class:`DistributedSharedTlb`
        slice per core (distributed, NOCSTAR and ideal).

        :class:`~repro.sim.system.System` and the offline replay
        (:mod:`repro.tlb.opt`) both build their L2 here.  No QoS way
        quota is set: ``System`` applies it, and the replay models none.
        """
        n = self.num_cores
        if self.scheme == PRIVATE:
            l2 = L2TlbConfig(self.entries_per_core, self.l2_ways, self.policy)
            return [PrivateL2Tlb(l2) for _ in range(n)]
        indexer = get_indexer(self.slice_indexing)
        if self.scheme == MONOLITHIC:
            return MonolithicSharedTlb(
                self.entries_per_core * n, self.banks, self.l2_ways,
                indexer=indexer, policy=self.policy,
                arbitration=self.arbitration,
            )
        return DistributedSharedTlb(
            n, self.entries_per_core, self.l2_ways,
            indexer=indexer, policy=self.policy, arbitration=self.arbitration,
        )

    def _check_power_of_two_shards(self) -> None:
        """The folds XOR bit groups of the page number, so they reach
        every shard only when the shard count is a power of two."""
        if self.scheme == PRIVATE:
            return  # private L2s have no shards to index
        source, shards = "num_cores", self.num_cores
        if self.scheme == MONOLITHIC:
            source, shards = "monolithic_banks", self.banks
        if shards & (shards - 1):
            raise ValueError(
                f"slice_indexing {self.slice_indexing!r} needs a power-of-two "
                f"shard count, but {source} gives {shards}"
            )

    def renamed(self, name: str) -> "SystemConfig":
        return replace(self, name=name)


@register_config("private")
def private(num_cores: int, **overrides) -> SystemConfig:
    return SystemConfig(
        name="private", num_cores=num_cores, scheme=PRIVATE, **overrides
    )


@register_config("monolithic")
def monolithic(
    num_cores: int,
    noc: str = MESH,
    fixed_latency: Optional[int] = None,
    **overrides,
) -> SystemConfig:
    if noc not in (MESH, SMART):
        raise ValueError("monolithic supports mesh or smart NoCs")
    suffix = f"-{noc}" if fixed_latency is None else f"-{fixed_latency}cc"
    return SystemConfig(
        name=f"monolithic{suffix}",
        num_cores=num_cores,
        scheme=MONOLITHIC,
        interconnect=noc if fixed_latency is None else ZERO,
        monolithic_banks=MonolithicSharedTlb.banks_for(num_cores),
        fixed_shared_latency=fixed_latency,
        **overrides,
    )


@register_config("distributed")
def distributed(num_cores: int, noc: str = MESH, **overrides) -> SystemConfig:
    """Distributed shared slices over a conventional fabric.

    ``noc`` selects the interconnect: the paper's contention-free mesh
    (default), or — for the Table-I-in-vivo ablation — a shared bus or
    a flattened butterfly (wide/narrow).
    """
    if noc not in (MESH, BUS, FBFLY_WIDE, FBFLY_NARROW):
        raise ValueError(f"distributed does not support the {noc!r} NoC")
    suffix = "" if noc == MESH else f"-{noc}"
    return SystemConfig(
        name=f"distributed{suffix}",
        num_cores=num_cores,
        scheme=DISTRIBUTED,
        interconnect=noc,
        **overrides,
    )


@register_config("nocstar")
def nocstar(
    num_cores: int, config: NocstarConfig = NocstarConfig(), **overrides
) -> SystemConfig:
    return SystemConfig(
        name="nocstar",
        num_cores=num_cores,
        scheme=NOCSTAR,
        interconnect=NOCSTAR,
        entries_per_core=config.slice_entries,
        nocstar=config,
        **overrides,
    )


@register_config("nocstar-ideal")
def nocstar_ideal(num_cores: int, **overrides) -> SystemConfig:
    return SystemConfig(
        name="nocstar-ideal",
        num_cores=num_cores,
        scheme=NOCSTAR,
        interconnect=NOCSTAR,
        entries_per_core=NocstarConfig().slice_entries,
        nocstar_ideal=True,
        **overrides,
    )


@register_config("ideal")
def ideal(num_cores: int, **overrides) -> SystemConfig:
    return SystemConfig(
        name="ideal", num_cores=num_cores, scheme=IDEAL, **overrides
    )


#: Named interconnect variants of the base schemes, registered so the
#: CLI and benches can build every lineup member from one namespace.
register_config(
    "monolithic-smart",
    lambda num_cores, **overrides: monolithic(num_cores, noc=SMART, **overrides),
)
register_config(
    "distributed-bus",
    lambda num_cores, **overrides: distributed(num_cores, noc=BUS, **overrides),
)
register_config(
    "distributed-fbfly-wide",
    lambda num_cores, **overrides: distributed(
        num_cores, noc=FBFLY_WIDE, **overrides
    ),
)
register_config(
    "distributed-fbfly-narrow",
    lambda num_cores, **overrides: distributed(
        num_cores, noc=FBFLY_NARROW, **overrides
    ),
)


#: Replacement-policy and arbitration variants of the shared schemes
#: (ROADMAP item 3: the policy zoo).  Each pins the override, then
#: renames so sweeps and campaigns can address the variant directly;
#: explicit overrides still win over the pinned default.
register_config(
    "distributed-arc",
    lambda num_cores, **overrides: distributed(
        num_cores, **{"policy": "arc", **overrides}
    ).renamed("distributed-arc"),
)
register_config(
    "distributed-twoq",
    lambda num_cores, **overrides: distributed(
        num_cores, **{"policy": "twoq", **overrides}
    ).renamed("distributed-twoq"),
)
register_config(
    "nocstar-arc",
    lambda num_cores, **overrides: nocstar(
        num_cores, **{"policy": "arc", **overrides}
    ).renamed("nocstar-arc"),
)
register_config(
    "nocstar-twoq",
    lambda num_cores, **overrides: nocstar(
        num_cores, **{"policy": "twoq", **overrides}
    ).renamed("nocstar-twoq"),
)
register_config(
    "distributed-prio",
    lambda num_cores, **overrides: distributed(
        num_cores, **{"arbitration": PRIORITY, **overrides}
    ).renamed("distributed-prio"),
)
register_config(
    "nocstar-prio",
    lambda num_cores, **overrides: nocstar(
        num_cores, **{"arbitration": PRIORITY, **overrides}
    ).renamed("nocstar-prio"),
)


#: Mega-mesh lineup (ROADMAP item 1): the paper's schemes scaled to
#: 256-1024 tiles, past the paper's 64 cores.  Each name pins its core
#: count — "distributed-1024" with 64 cores would silently bench the
#: wrong machine, so a mismatch raises instead.
MEGA_CORE_COUNTS = (256, 512, 1024)


def _register_mega(base: str, cores: int, factory: ConfigFactory) -> None:
    name = f"{base}-{cores}"

    def mega(num_cores: int = cores, **overrides) -> SystemConfig:
        if num_cores != cores:
            raise ValueError(
                f"{name} pins num_cores={cores}, got {num_cores}"
            )
        _validate_mesh_geometry(name, cores)
        return factory(cores, **overrides).renamed(name)

    register_config(name, mega)


def _validate_mesh_geometry(name: str, num_tiles: int) -> None:
    """Reject degenerate mega meshes before a System is built.

    The topology folds any tile count into the most-square rows x cols
    grid; a mega configuration additionally requires an aspect ratio of
    at most 2 (256=16x16, 512=16x32, 1024=32x32) so hop counts stay in
    the regime the paper's latency model was fitted for.
    """
    from repro.noc.topology import MeshTopology

    topo = MeshTopology(num_tiles)
    if topo.cols > 2 * topo.rows:
        raise ValueError(
            f"{name}: {num_tiles} tiles folds to a degenerate "
            f"{topo.cols}x{topo.rows} mesh (aspect ratio > 2)"
        )


for _cores in MEGA_CORE_COUNTS:
    _register_mega("distributed", _cores, distributed)
    _register_mega("nocstar", _cores, nocstar)
    _register_mega(
        "monolithic-smart",
        _cores,
        lambda n, **o: monolithic(n, noc=SMART, **o),
    )


def paper_lineup(num_cores: int, **overrides) -> Tuple[SystemConfig, ...]:
    """The four-way comparison of Figs 12-14: Mon/Dist/NOCSTAR/Ideal.

    ``overrides`` (e.g. ``policy="arc"``) apply to every member, so
    sweeps can rerun the whole lineup under a different replacement
    policy or arbitration mode.
    """
    return (
        private(num_cores, **overrides),
        monolithic(num_cores, **overrides),
        distributed(num_cores, **overrides),
        nocstar(num_cores, **overrides),
        ideal(num_cores, **overrides),
    )
