"""Trace generation: structure, determinism, and pool statistics."""

import numpy as np
import pytest

from repro.vm.address import PAGE_2M, PAGE_4K, PAGES_PER_2M
from repro.workloads.generators import (
    LIB_POOL_PAGES,
    PagePool,
    ZipfSampler,
    build_multiprogrammed,
    build_multithreaded,
)
from repro.workloads.microbench import build_slice_hammer
from repro.workloads.registry import WORKLOADS, get_workload
from repro.workloads.spec import WorkloadSpec
from repro.vm.address_space import VpnAllocator


def small_spec(**overrides):
    base = dict(
        name="tiny", hot_pages=16, hot_fraction=0.6, warm_pages=128,
        warm_fraction=0.2, footprint_pages=2048, cold_alpha=0.8,
        seq_fraction=0.3, lib_fraction=0.05, mean_gap=3.0,
        superpage_fraction=0.5,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_zipf_sampler_head_concentration():
    """The 100 hottest of 10,000 pages draw over 40% of Zipf(1.0)
    samples, and 1% of uniform ones."""
    def head_share(alpha):
        draws = ZipfSampler(10_000, alpha).sample(
            20_000, np.random.default_rng(0)
        )
        return float(np.mean(draws < 100))

    assert head_share(1.0) > 0.4
    assert head_share(0.0) == pytest.approx(0.01, abs=0.003)


def test_zipf_sampler_range():
    sampler = ZipfSampler(100, 0.9, permute_seed=1)
    draws = sampler.sample(1000, np.random.default_rng(0))
    assert draws.min() >= 0 and draws.max() < 100


def test_zipf_permutation_scatters_head():
    """With permutation, the hottest page is not index 0."""
    plain = ZipfSampler(10_000, 1.2)
    perm = ZipfSampler(10_000, 1.2, permute_seed=3)
    rng = np.random.default_rng(0)
    plain_mode = np.bincount(plain.sample(5000, rng)).argmax()
    assert plain_mode == 0
    rng = np.random.default_rng(0)
    perm_draws = perm.sample(5000, rng)
    assert np.bincount(perm_draws).argmax() != 0


def test_page_pool_split():
    pool = PagePool.build(VpnAllocator(), 2048, asid=1,
                          superpage_fraction=0.5, shared=False)
    assert pool.asid == 1  # a private pool keeps its own ASID
    assert pool.super_pages == 1024
    assert pool.num_pages - pool.super_pages == 1024
    sizes, numbers = pool.translate(np.array([0, 1023, 1024, 2047]))
    assert list(sizes) == [PAGE_2M, PAGE_2M, PAGE_4K, PAGE_4K]


def test_page_pool_shared_uses_global_asid():
    pool = PagePool.build(VpnAllocator(), 64, asid=5,
                          superpage_fraction=0.0, shared=True)
    assert pool.asid == 0


def _pool(num_pages, fraction, allocator=None):
    return PagePool.build(allocator or VpnAllocator(), num_pages, asid=1,
                          superpage_fraction=fraction, shared=False)


def test_page_pool_splits_by_fraction():
    pool = _pool(4096, 0.5)
    assert pool.super_pages == 2048
    assert pool.num_pages - pool.super_pages == 2048
    sizes, _ = pool.translate(np.arange(4096))
    assert (sizes == PAGE_2M).sum() == 2048
    assert (sizes == PAGE_4K).sum() == 2048


def test_page_pool_rounds_down_to_whole_superpages():
    pool = _pool(1500, 0.5)
    # 750 rounds down to 512 (one whole 2MB region).
    assert pool.super_pages == 512
    sizes, _ = pool.translate(np.arange(1500))
    assert (sizes == PAGE_2M).sum() == 512
    assert (sizes == PAGE_4K).sum() == 1500 - 512


def test_page_pool_zero_fraction_is_all_4k():
    pool = _pool(1000, 0.0)
    assert pool.super_pages == 0
    sizes, _ = pool.translate(np.arange(1000))
    assert set(sizes.tolist()) == {PAGE_4K}


def test_page_pool_small_footprint_cannot_use_superpages():
    pool = _pool(100, 0.9)
    assert pool.super_pages == 0
    sizes, _ = pool.translate(np.arange(100))
    assert set(sizes.tolist()) == {PAGE_4K}


def test_page_pool_allocates_every_page_once():
    """The 2MB run and the 4KB remainder cover ``num_pages`` distinct
    VPNs between them, and the allocator moves past exactly those."""
    for fraction in (0.0, 0.3, 0.65, 1.0):
        allocator = VpnAllocator()
        start = allocator.next_vpn
        pool = _pool(10_240, fraction, allocator)
        vpns = set(range(pool.super_base, pool.super_base + pool.super_pages))
        small = pool.num_pages - pool.super_pages
        vpns |= set(range(pool.small_base, pool.small_base + small))
        assert len(vpns) == 10_240
        assert min(vpns) >= start and max(vpns) < allocator.next_vpn


def test_page_pool_superpage_run_is_aligned():
    allocator = VpnAllocator()
    allocator.allocate(3)  # leave the bump pointer unaligned
    pool = _pool(4096, 0.8, allocator)
    assert pool.super_pages == 3072
    assert pool.super_base % PAGES_PER_2M == 0
    # The 4KB remainder follows the run.
    assert pool.small_base == pool.super_base + pool.super_pages


def test_multithreaded_structure():
    wl = build_multithreaded(small_spec(), 4, accesses_per_core=500, seed=1)
    assert wl.num_cores == 4
    assert wl.smt == 1
    assert wl.total_accesses == 2000
    gap, asid, size, pn = wl.traces[0][0][0]
    assert gap >= 1 and size in (PAGE_4K, PAGE_2M) and pn >= 0


def test_determinism_under_seed():
    a = build_multithreaded(small_spec(), 2, accesses_per_core=300, seed=9)
    b = build_multithreaded(small_spec(), 2, accesses_per_core=300, seed=9)
    assert a.traces == b.traces


def test_different_seeds_differ():
    a = build_multithreaded(small_spec(), 2, accesses_per_core=300, seed=1)
    b = build_multithreaded(small_spec(), 2, accesses_per_core=300, seed=2)
    assert a.traces != b.traces


def test_superpages_disabled_yields_only_4k():
    wl = build_multithreaded(
        small_spec(), 2, accesses_per_core=500, seed=1, superpages=False
    )
    sizes = {r[2] for core in wl.traces for s in core for r in s}
    assert sizes == {PAGE_4K}


def test_superpages_enabled_yields_both():
    wl = build_multithreaded(small_spec(), 2, accesses_per_core=500, seed=1)
    sizes = {r[2] for core in wl.traces for s in core for r in s}
    assert sizes == {PAGE_4K, PAGE_2M}


def test_lib_accesses_tagged_global():
    wl = build_multithreaded(
        small_spec(lib_fraction=0.15, warm_fraction=0.1),
        2, accesses_per_core=2000, seed=1,
    )
    asids = {r[1] for core in wl.traces for s in core for r in s}
    assert asids == {0, 1}


def test_sequential_runs_present():
    """Adjacent page numbers appear consecutively at roughly the
    configured seq rate."""
    wl = build_multithreaded(
        small_spec(seq_fraction=0.6, superpage_fraction=0.0),
        1, accesses_per_core=5000, seed=2, superpages=False,
    )
    stream = wl.traces[0][0]
    consecutive = sum(
        1 for a, b in zip(stream, stream[1:]) if b[3] == a[3] + 1
    )
    assert consecutive / len(stream) > 0.4


def test_gaps_follow_mean():
    wl = build_multithreaded(
        small_spec(mean_gap=6.0), 1, accesses_per_core=5000, seed=3
    )
    gaps = [r[0] for r in wl.traces[0][0]]
    assert 5.0 <= sum(gaps) / len(gaps) <= 7.0


def test_smt_builds_streams():
    wl = build_multithreaded(
        small_spec(), 2, accesses_per_core=200, seed=1, smt=2
    )
    assert wl.smt == 2
    assert wl.total_accesses == 2 * 2 * 200


def test_multiprogrammed_asids_and_cores():
    specs = [small_spec(), small_spec(name="tiny2")]
    wl = build_multiprogrammed(specs, 4, accesses_per_core=300, seed=1)
    assert wl.num_cores == 4
    first_app = {r[1] for s in wl.traces[0] for r in s}
    second_app = {r[1] for s in wl.traces[2] for r in s}
    assert 1 in first_app and 2 in second_app
    assert 2 not in first_app and 1 not in second_app
    assert wl.info["apps"] == {"tiny": [0, 1], "tiny2": [2, 3]}


def test_multiprogrammed_rejects_uneven_split():
    with pytest.raises(ValueError):
        build_multiprogrammed([small_spec()] * 3, 4, 100)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_multithreaded(small_spec(), 2, 10, seed=-1),
        lambda: build_multiprogrammed([small_spec()], 2, 10, seed=-1),
        lambda: build_slice_hammer(2, 10, seed=-1),
    ],
    ids=["multithreaded", "multiprogrammed", "slice-hammer"],
)
def test_builders_reject_a_negative_seed_by_name(build):
    with pytest.raises(ValueError, match=r"seed must be >= 0 \(got -1\)"):
        build()


def test_multithreaded_cores_share_cold_pool():
    """The sharing the shared TLB exploits: different cores reference
    the same pages of the app pool."""
    wl = build_multithreaded(
        get_workload("canneal"), 4, accesses_per_core=4000, seed=1
    )
    pages = [
        {r[3] for r in wl.traces[core][0]} for core in range(4)
    ]
    overlap = pages[0] & pages[1] & pages[2] & pages[3]
    assert len(overlap) >= 20


def test_zipf_cdf_memoised_per_n_alpha():
    """Every core of a workload samples the same (n, alpha) CDF; the
    process-wide memo means the n-element cumsum happens once."""
    from repro.workloads.generators import _CDF_CACHE, _zipf_cdf

    _CDF_CACHE.clear()
    first = _zipf_cdf(10_000, 1.01)
    assert _zipf_cdf(10_000, 1.01) is first
    assert not first.flags.writeable  # shared: must be immutable
    assert _zipf_cdf(10_000, 0.99) is not first
    assert _zipf_cdf(9_999, 1.01) is not first
    assert len(_CDF_CACHE) == 3


def test_memoised_sampler_output_unchanged():
    """The memo must not perturb generation: two samplers over the
    same distribution draw identical sequences from identical rngs."""
    import numpy as np

    from repro.workloads.generators import _CDF_CACHE, ZipfSampler

    _CDF_CACHE.clear()
    cold = ZipfSampler(5_000, 1.05, permute_seed=9).sample(
        500, np.random.default_rng(3)
    )
    warm = ZipfSampler(5_000, 1.05, permute_seed=9).sample(
        500, np.random.default_rng(3)
    )
    assert cold.tolist() == warm.tolist()
