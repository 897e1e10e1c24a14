"""Offline Belady bound: dominance, exactness, and stream invariants."""

from dataclasses import replace

import pytest

from repro.sim import configs as cfg
from repro.tlb.opt import (
    OPT,
    canonical_stream,
    geometry,
    offline_policy_eval,
    pct_of_opt,
)
from repro.tlb.policies import POLICY_NAMES
from repro.vm.address import PAGE_1G, PAGE_4K
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload
from repro.workloads.trace import Workload


def _workload_from_pages(pages, name="hand"):
    """Single-core single-stream 4K workload from a page-number list."""
    records = [(0, 1, PAGE_4K, page) for page in pages]
    return Workload(name=name, traces=[[records]], seed=0, superpages=False)


def _tiny_config(entries=4, ways=4):
    """A 1-core private config: one shard, one set — pure policy play."""
    return replace(cfg.private(1), entries_per_core=entries, l2_ways=ways)


# ---------------------------------------------------------------------------
# canonical stream


def test_canonical_stream_round_robins_cores():
    wl = Workload(
        name="rr",
        traces=[
            [[(0, 1, PAGE_4K, 10), (0, 1, PAGE_4K, 11)]],
            [[(0, 2, PAGE_4K, 20)]],
        ],
        seed=0,
        superpages=False,
    )
    assert canonical_stream(wl) == [
        (0, 1, PAGE_4K, 10),
        (1, 2, PAGE_4K, 20),
        (0, 1, PAGE_4K, 11),
    ]


def test_canonical_stream_merges_smt_streams():
    wl = Workload(
        name="smt",
        traces=[[
            [(0, 1, PAGE_4K, 1), (0, 1, PAGE_4K, 2)],
            [(0, 1, PAGE_4K, 7)],
        ]],
        seed=0,
        superpages=False,
    )
    assert canonical_stream(wl) == [
        (0, 1, PAGE_4K, 1),
        (0, 1, PAGE_4K, 7),
        (0, 1, PAGE_4K, 2),
    ]


# ---------------------------------------------------------------------------
# structure geometry


def test_structure_for_private_is_per_core_shards():
    shards, _, _, shift, indexer = geometry(cfg.private(8).l2_structures())
    assert indexer is None  # each core's own array is its home
    assert shards == 8
    assert shift == 0
    only_core_3 = Workload(
        name="core3",
        traces=[[[]]] * 3 + [[[(0, 1, PAGE_4K, 12345)]]] + [[[]]] * 4,
        seed=0,
        superpages=False,
    )
    results = offline_policy_eval(only_core_3, cfg.private(8))
    assert results[OPT].slice_accesses == (0, 0, 0, 1, 0, 0, 0, 0)


def test_structure_for_distributed_slices():
    config = cfg.distributed(8)
    shards, entries, _, shift, indexer = geometry(config.l2_structures())
    assert indexer is not None
    assert shards == 8
    assert shift == 3
    assert entries == config.entries_per_core


def test_structure_for_monolithic_banks():
    config = cfg.monolithic(8)
    shards, entries, _, _, indexer = geometry(config.l2_structures())
    assert indexer is not None
    assert shards == 4  # banks_for(8)
    assert entries == config.entries_per_core * 8 // 4


# ---------------------------------------------------------------------------
# OPT exactness on hand-built traces


def test_opt_equals_lru_on_lru_friendly_sequence():
    """Working set <= ways: every policy, OPT included, is identical."""
    pages = [0, 1, 2, 3] * 10  # cyclic, fits the 4-way set exactly
    results = offline_policy_eval(_workload_from_pages(pages), _tiny_config())
    assert results[OPT].hits == results["lru"].hits
    assert results[OPT].hit_rate == results["lru"].hit_rate
    # 4 cold misses, everything else hits — for all of them.
    for evaluation in results.values():
        assert evaluation.hits == len(pages) - 4
        assert evaluation.accesses == len(pages)


def test_opt_beats_lru_on_cyclic_overflow():
    """The classic ways+1 loop: LRU thrashes to 0%, OPT keeps ways-1."""
    pages = list(range(5)) * 8  # 5-page loop over a 4-way set
    results = offline_policy_eval(_workload_from_pages(pages), _tiny_config())
    assert results["lru"].hits == 0
    assert results[OPT].hits > results["lru"].hits
    assert results[OPT].hit_rate > 0.5


def test_opt_never_installs_1g_records():
    wl = Workload(
        name="huge",
        traces=[[[(0, 1, PAGE_1G, 5), (0, 1, PAGE_1G, 5),
                  (0, 1, PAGE_4K, 9), (0, 1, PAGE_4K, 9)]]],
        seed=0,
        superpages=True,
    )
    results = offline_policy_eval(wl, _tiny_config())
    for evaluation in results.values():
        # The repeated 1G reference misses twice; the 4K one hits once.
        assert evaluation.accesses == 4
        assert evaluation.hits == 1


# ---------------------------------------------------------------------------
# dominance over the corpus


_CONFIG_BUILDERS = ("private", "distributed", "monolithic", "nocstar")
_WORKLOADS = ("graph500", "gups", "olio")


@pytest.mark.parametrize("config_name", _CONFIG_BUILDERS)
@pytest.mark.parametrize("workload_name", _WORKLOADS)
def test_opt_dominates_every_policy(config_name, workload_name):
    """hit-rate(OPT) >= hit-rate(policy), total and per slice."""
    wl = build_multithreaded(
        get_workload(workload_name), 4, accesses_per_core=800, seed=13
    )
    config = replace(cfg.build_config(config_name, 4), entries_per_core=64)
    results = offline_policy_eval(wl, config)
    opt = results[OPT]
    for name in POLICY_NAMES:
        policy = results[name]
        assert policy.accesses == opt.accesses
        assert opt.hits >= policy.hits, (
            f"OPT beaten by {name} on {workload_name}/{config_name}"
        )
        for shard in range(len(opt.slice_hits)):
            assert opt.slice_hits[shard] >= policy.slice_hits[shard], (
                f"OPT beaten by {name} in slice {shard} "
                f"on {workload_name}/{config_name}"
            )
        assert 0.0 <= pct_of_opt(results, name) <= 100.0


def test_pct_of_opt_degenerate_zero_rate():
    """No hits anywhere (single access): pct-of-OPT pins to 100."""
    results = offline_policy_eval(_workload_from_pages([42]), _tiny_config())
    assert results[OPT].hit_rate == 0.0
    for name in POLICY_NAMES:
        assert pct_of_opt(results, name) == 100.0
