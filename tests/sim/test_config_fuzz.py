"""Both drive loops over random configurations (ROADMAP 4(c), first slice).

``REPRO_REFERENCE_ENGINE=1`` picks the drive loop and nothing else, so
a configuration fuzz tests exactly the loops: a registered
configuration at 1-16 cores, with the knobs below overridden, runs a
tiny workload under each loop, and both results must serialise to the
same bytes.  The strategy also draws values ``SystemConfig`` rejects
(non-power-of-two fold counts, a misplaced or negative fixed latency,
a non-positive L1 scale, a bank count below 1 or one that does not
divide the monolith's entries); those must raise ``ValueError`` at
construction, before any loop runs.  One-core folds stay in the
strategy: they used to hang inside the slice indexer.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ONE_WAY, ROUND_TRIP, NocstarConfig
from repro.exec.cache import canonical_json
from repro.sim import configs as cfg
from repro.sim.engine import REFERENCE_ENV, simulate
from repro.tlb.l2_shared import FIFO, PRIORITY, MonolithicSharedTlb
from repro.tlb.policies import POLICY_NAMES
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload

#: Every registered configuration that takes any core count (the mega
#: configurations pin theirs), and Fig 4's fixed-latency monolith.
NAMES = sorted(
    name
    for name in cfg.available_configs()
    if not any(name.endswith(f"-{n}") for n in cfg.MEGA_CORE_COUNTS)
) + ["monolithic-16cc"]


def base_config(name, cores):
    if name == "monolithic-16cc":
        return cfg.monolithic(cores, fixed_latency=16)
    return cfg.build_config(name, cores)


#: Each knob is drawn or left at the configuration's value; the values
#: ``SystemConfig`` rejects are drawn less often than valid ones.
OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "policy": st.sampled_from(POLICY_NAMES),
        "arbitration": st.sampled_from([FIFO, PRIORITY]),
        "slice_indexing": st.sampled_from(["modulo", "xor-fold", "asid-mix"]),
        "prefetch_distances": st.sampled_from([(), (1,), (1, 2), (1, 2, 3)]),
        "ptw_policy": st.sampled_from([cfg.PTW_REQUESTER, cfg.PTW_REMOTE]),
        "ptw_fixed": st.sampled_from([None, 20, 150]),
        "qos_way_quota": st.sampled_from([None, 1, 2, 4]),
        "translation_overlap": st.sampled_from([0.0, 0.45, 0.9]),
        "l1_scale": st.sampled_from([0.5, 1.0, 1.5, 0.25, 0.0, -1.0]),
        "fixed_shared_latency": st.sampled_from([None, None, 0, 16, -5]),
        "leader_granularity": st.integers(1, 16),
        "monolithic_banks": st.sampled_from([None, 1, 2, 3, 4, 8, 0, -4]),
        "nocstar": st.builds(
            NocstarConfig,
            hpc_max=st.integers(1, 16),
            acquire=st.sampled_from([ONE_WAY, ROUND_TRIP]),
        ),
    },
)


def rejected(fields) -> bool:
    """Whether ``SystemConfig`` must refuse these field values."""
    if not (fields["l1_scale"] > 0 and math.isfinite(fields["l1_scale"])):
        return True
    fixed = fields["fixed_shared_latency"]
    if fixed is not None and (
        fixed < 0
        or fields["scheme"] != cfg.MONOLITHIC
        or fields["interconnect"] != cfg.ZERO
    ):
        return True
    banks = fields["monolithic_banks"]
    if banks is not None and banks < 1:
        return True
    shards = fields["num_cores"]
    if fields["scheme"] == cfg.MONOLITHIC:
        if banks is None:
            banks = MonolithicSharedTlb.banks_for(shards)
        if fields["entries_per_core"] * shards % banks:
            return True
        shards = banks
    if fields["slice_indexing"] == "modulo" or fields["scheme"] == cfg.PRIVATE:
        return False
    return bool(shards & (shards - 1))


def _run(config, workload, reference):
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setenv(REFERENCE_ENV, "1")
        else:
            mp.delenv(REFERENCE_ENV, raising=False)
        return canonical_json(simulate(config, workload))


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    cores=st.integers(1, 16),
    overrides=OVERRIDES,
    workload=st.sampled_from(["gups", "graph500", "redis", "olio"]),
    accesses=st.integers(1, 150),
    smt=st.sampled_from([1, 2]),
    seed=st.integers(0, 1_000),
)
def test_both_drive_loops_agree_on_any_valid_config(
    name, cores, overrides, workload, accesses, smt, seed
):
    base = base_config(name, cores)
    fields = {**vars(base), **overrides}
    if rejected(fields):
        with pytest.raises(ValueError):
            dataclasses.replace(base, **overrides)
        return
    config = dataclasses.replace(base, **overrides)
    trace = build_multithreaded(
        get_workload(workload), cores, accesses_per_core=accesses,
        seed=seed, smt=smt,
    )
    assert _run(config, trace, reference=False) == _run(
        config, trace, reference=True
    )
