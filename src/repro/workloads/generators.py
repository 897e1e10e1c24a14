"""Synthetic trace generation for the paper's workload suite.

Builds per-core access traces from a :class:`WorkloadSpec`'s pool
mixture (see :mod:`repro.workloads.spec`).  Generation is vectorised
with numpy: pool choices and Zipf ranks are drawn in bulk, and
sequential runs (spatial locality) are reconstructed with an
anchor-propagation trick instead of a per-access Python loop.

Popularity is decoupled from placement: Zipf ranks are scattered over
the pool's index space with a seeded random permutation, so the hottest
pages are spread across both the superpage- and 4KB-backed portions of
the footprint with no accidental stride structure, while sequential
runs still touch spatially adjacent pages (which is what gives +/-k
prefetching and superpages their bite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.vm.address_space import AddressSpace, Extent, VpnAllocator
from repro.vm.superpage import SuperpagePolicy
from repro.workloads.io import page_size_column
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace import Record, Workload

#: Version of the trace-generation algorithm.  Any change to how this
#: module turns a :class:`WorkloadSpec` into records — pool layout,
#: sampling, anchor propagation, gap distribution — must bump it: the
#: :class:`~repro.exec.trace_store.TraceStore` keys its on-disk trace
#: artifacts on this constant, so a bump orphans every stale artifact
#: by construction (mirroring how ``ENGINE_VERSION`` invalidates the
#: result cache).
GENERATOR_VERSION = 1

#: Seed offset for the per-pool rank->page permutations.
_SCATTER_SEED = 0x5CA77E12

#: The globally shared library/OS pool every process maps (§II-A).
LIB_POOL_PAGES = 2048
LIB_ALPHA = 1.1
GLOBAL_ASID = 0


#: Process-wide memo of Zipf CDFs keyed by ``(n, alpha)``.  At sweep
#: scale the same populations recur constantly — every core of a
#: workload, every configuration of a lineup, every pool worker — and
#: an ``n``-element cumsum over a paper-scale footprint (millions of
#: pages) is too expensive to recompute per sampler.  The arrays are
#: frozen (non-writeable) so sharing one instance across samplers
#: cannot let one caller mutate another's distribution.
_CDF_CACHE: Dict[Tuple[int, float], np.ndarray] = {}


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    cdf = _CDF_CACHE.get((n, alpha))
    if cdf is None:
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        _CDF_CACHE[(n, alpha)] = cdf
    return cdf


def seeded_rng(seed: int) -> np.random.Generator:
    """A trace builder's generator; rejects a negative seed by name."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.default_rng(seed)


class ZipfSampler:
    """Bulk sampler of Zipf(alpha)-popular page indices over [0, n).

    With ``permute_seed`` set, popularity ranks are mapped to page
    indices through a seeded random permutation, so the hottest pages
    are scattered uniformly over the pool with no stride structure.
    """

    def __init__(self, n: int, alpha: float, permute_seed=None) -> None:
        if n <= 0:
            raise ValueError("population must be positive")
        self.n = n
        self.alpha = alpha
        if alpha > 0.0:
            self._cdf = _zipf_cdf(n, alpha)
        else:
            self._cdf = None  # uniform
        if permute_seed is not None:
            self._perm = np.random.default_rng(permute_seed).permutation(n)
        else:
            self._perm = None

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self._cdf is None:
            ranks = rng.integers(0, self.n, size=count, dtype=np.int64)
        else:
            ranks = np.searchsorted(self._cdf, rng.random(count)).astype(np.int64)
        if self._perm is not None:
            return self._perm[ranks]
        return ranks


@dataclass
class PagePool:
    """A pool of pages laid out as extents, with vectorised translation."""

    asid: int
    num_pages: int
    super_base: int  # base VPN of the 2MB-backed portion (page index 0..)
    super_pages: int  # 4KB pages inside the 2MB-backed portion
    small_base: int  # base VPN of the 4KB-backed remainder
    extents: Tuple[Extent, ...]

    @classmethod
    def build(
        cls,
        allocator: VpnAllocator,
        num_pages: int,
        asid: int,
        superpage_fraction: float,
        shared: bool,
    ) -> "PagePool":
        policy = SuperpagePolicy(superpage_fraction)
        extents = policy.layout(allocator, num_pages, shared=shared)
        super_base = small_base = 0
        super_pages = 0
        for extent in extents:
            if extent.page_size == PAGE_2M:
                super_base, super_pages = extent.base_vpn, extent.num_pages
            else:
                small_base = extent.base_vpn
        return cls(
            asid=GLOBAL_ASID if shared else asid,
            num_pages=num_pages,
            super_base=super_base,
            super_pages=super_pages,
            small_base=small_base,
            extents=tuple(extents),
        )

    def translate(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Map pool page indices to (page_size, page_number) arrays."""
        in_super = indices < self.super_pages
        vpn = np.where(
            in_super,
            self.super_base + indices,
            self.small_base + (indices - self.super_pages),
        )
        sizes = np.where(in_super, PAGE_2M, PAGE_4K)
        numbers = np.where(in_super, vpn >> 9, vpn)
        return sizes, numbers


@dataclass
class AppLayout:
    """One application's pools and context."""

    spec: WorkloadSpec
    asid: int
    hot_pools: List[PagePool]  # one per thread
    warm_pool: Optional[PagePool]
    cold_pool: PagePool
    cold_sampler: ZipfSampler
    warm_sampler: Optional[ZipfSampler] = None


def build_lib_pool(allocator: VpnAllocator) -> Tuple[PagePool, ZipfSampler]:
    """The shared library / OS pool, mapped by every address space."""
    pool = PagePool.build(
        allocator, LIB_POOL_PAGES, asid=GLOBAL_ASID,
        superpage_fraction=0.0, shared=True,
    )
    return pool, ZipfSampler(
        LIB_POOL_PAGES, LIB_ALPHA, permute_seed=_SCATTER_SEED
    )


def build_app_layout(
    spec: WorkloadSpec,
    asid: int,
    num_threads: int,
    allocator: VpnAllocator,
    superpages: bool,
) -> AppLayout:
    effective = spec.with_superpages(superpages)
    sp_frac = effective.superpage_fraction
    hot_pools = [
        PagePool.build(allocator, spec.hot_pages, asid, 0.0, shared=False)
        for _ in range(num_threads)
    ]
    warm_pool = None
    warm_sampler = None
    if spec.warm_pages:
        warm_pool = PagePool.build(
            allocator, spec.warm_pages, asid, sp_frac, shared=False
        )
        warm_sampler = ZipfSampler(
            spec.warm_pages, 0.3, permute_seed=_SCATTER_SEED + 2 * asid + 1
        )
    cold_pool = PagePool.build(
        allocator, spec.footprint_pages, asid, sp_frac, shared=False
    )
    return AppLayout(
        spec=spec,
        asid=asid,
        hot_pools=hot_pools,
        warm_pool=warm_pool,
        cold_pool=cold_pool,
        cold_sampler=ZipfSampler(
            spec.footprint_pages,
            spec.cold_alpha,
            permute_seed=_SCATTER_SEED + 2 * asid,
        ),
        warm_sampler=warm_sampler,
    )


def generate_stream(
    layout: AppLayout,
    thread: int,
    accesses: int,
    rng: np.random.Generator,
    lib_pool: PagePool,
    lib_sampler: ZipfSampler,
) -> List[Record]:
    """One thread's trace: the pool-mixture with sequential runs."""
    spec = layout.spec
    n = accesses
    if n <= 0:
        raise ValueError("need at least one access")

    # Anchors start fresh draws; non-anchors continue the previous page.
    is_continuation = rng.random(n) < spec.seq_fraction
    is_continuation[0] = False
    anchor_pos = np.where(~is_continuation, np.arange(n), -1)
    last_anchor = np.maximum.accumulate(anchor_pos)
    run_offset = np.arange(n) - last_anchor

    # Pool choice at anchors: 0 hot, 1 warm, 2 lib, 3 cold.
    u = rng.random(n)
    hot_t = spec.hot_fraction
    warm_t = hot_t + spec.warm_fraction
    lib_t = warm_t + spec.lib_fraction
    pool_at = np.select(
        [u < hot_t, u < warm_t, u < lib_t], [0, 1, 2], default=3
    ).astype(np.int8)

    hot_pool = layout.hot_pools[thread % len(layout.hot_pools)]
    pools = [hot_pool, layout.warm_pool or hot_pool, lib_pool, layout.cold_pool]
    pool_sizes = np.array([p.num_pages for p in pools], dtype=np.int64)

    index_at = np.zeros(n, dtype=np.int64)
    anchors = ~is_continuation
    for pool_id, pool in enumerate(pools):
        mask = anchors & (pool_at == pool_id)
        count = int(mask.sum())
        if not count:
            continue
        if pool_id == 0:
            index_at[mask] = rng.integers(
                0, pool.num_pages, size=count, dtype=np.int64
            )
            continue
        if pool_id == 1:
            index_at[mask] = layout.warm_sampler.sample(count, rng)
        elif pool_id == 2:
            index_at[mask] = lib_sampler.sample(count, rng)
        else:
            index_at[mask] = layout.cold_sampler.sample(count, rng)

    # Propagate anchors through runs (continuations walk forward).
    pool_ids = pool_at[last_anchor]
    indices = (index_at[last_anchor] + run_offset) % pool_sizes[pool_ids]

    # Translate per pool.
    sizes = np.zeros(n, dtype=np.int64)
    numbers = np.zeros(n, dtype=np.int64)
    asids = np.zeros(n, dtype=np.int64)
    for pool_id, pool in enumerate(pools):
        mask = pool_ids == pool_id
        if not mask.any():
            continue
        pool_sizes_arr, pool_numbers = pool.translate(indices[mask])
        sizes[mask] = pool_sizes_arr
        numbers[mask] = pool_numbers
        asids[mask] = pool.asid

    gaps = 1 + rng.poisson(max(spec.mean_gap - 1.0, 0.0), size=n)
    return list(
        zip(gaps.tolist(), asids.tolist(), page_size_column(sizes),
            numbers.tolist())
    )


def build_multithreaded(
    spec: WorkloadSpec,
    num_cores: int,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    superpages: bool = True,
    smt: int = 1,
) -> Workload:
    """One multi-threaded application occupying every core."""
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1 (got {num_cores})")
    rng = seeded_rng(seed)
    allocator = VpnAllocator()
    lib_pool, lib_sampler = build_lib_pool(allocator)
    layout = build_app_layout(
        spec, asid=1, num_threads=num_cores * smt,
        allocator=allocator, superpages=superpages,
    )
    traces = [
        [
            generate_stream(
                layout, core * smt + s, accesses_per_core, rng,
                lib_pool, lib_sampler,
            )
            for s in range(smt)
        ]
        for core in range(num_cores)
    ]
    return Workload(
        name=spec.name,
        traces=traces,
        seed=seed,
        superpages=superpages,
        info={"apps": {spec.name: list(range(num_cores))}},
    )


def build_multiprogrammed(
    specs: Sequence[WorkloadSpec],
    num_cores: int,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    superpages: bool = True,
    footprint_scale: float = 1.0,
) -> Workload:
    """Multiprogrammed mix: apps split the cores evenly (§IV: 4 apps x
    8 threads on 32 cores), each with its own ASID, all sharing the
    library/OS pool."""
    if num_cores % len(specs):
        raise ValueError("core count must divide evenly among the apps")
    threads_per_app = num_cores // len(specs)
    rng = seeded_rng(seed)
    allocator = VpnAllocator()
    lib_pool, lib_sampler = build_lib_pool(allocator)
    traces: List[List[List[Record]]] = []
    apps: Dict[str, List[int]] = {}
    for app_id, spec in enumerate(specs):
        scaled = (
            spec.scaled_footprint(footprint_scale)
            if footprint_scale != 1.0
            else spec
        )
        layout = build_app_layout(
            scaled, asid=app_id + 1, num_threads=threads_per_app,
            allocator=allocator, superpages=superpages,
        )
        cores = []
        for thread in range(threads_per_app):
            cores.append(len(traces))
            traces.append(
                [
                    generate_stream(
                        layout, thread, accesses_per_core, rng,
                        lib_pool, lib_sampler,
                    )
                ]
            )
        apps[spec.name] = cores
    name = "+".join(spec.name for spec in specs)
    return Workload(
        name=name, traces=traces, seed=seed,
        superpages=superpages, info={"apps": apps},
    )
