"""Engine fast-path bench: batched drive loop vs the reference loop.

Standalone script (not a pytest bench): times one 64-core simulation
under the batched drive loop (precompiled L1 misses) and under the
``REPRO_REFERENCE_ENGINE=1`` reference loop (one L1 probe per record,
on the same routes, sends and transaction), prints both, and writes
the machine-readable ``BENCH_engine.json`` artefact under
``benchmarks/results/`` (override with argv[1]).

    PYTHONPATH=src python benchmarks/bench_engine.py [out.json]

The script is a perf regression gate: it asserts the batched engine is
at least ``MIN_SPEEDUP`` times faster than the reference on the
64-core scenario, and — because speed means nothing if the bits drift
— that both engines produce byte-identical results.  ``make
bench-engine-smoke`` runs it as part of ``make verify``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.exec.cache import canonical_json
from repro.analysis.tables import render_table
from repro.sim import configs as cfg
from repro.sim.engine import REFERENCE_ENV
from repro.sim.scenario import RunUnit
from repro.workloads.registry import get_workload

CORES = 64
ACCESSES = 4_000
WORKLOAD = "graph500"
CONFIG = "monolithic-smart"
SEED = 3
REPEATS = 3
#: The perf guard: batched must beat the reference by this factor on
#: the 64-core scenario (measured headroom is ~1.6x).
MIN_SPEEDUP = 1.5

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _unit() -> RunUnit:
    return RunUnit(
        config=cfg.build_config(CONFIG, CORES),
        workload=get_workload(WORKLOAD),
        accesses_per_core=ACCESSES,
        seed=SEED,
    )


def _run_once(reference: bool):
    """One timed execute under the requested engine."""
    if reference:
        os.environ[REFERENCE_ENV] = "1"
    else:
        os.environ.pop(REFERENCE_ENV, None)
    try:
        unit = _unit()
        start = time.perf_counter()
        result = unit.execute()
        return time.perf_counter() - start, result
    finally:
        os.environ.pop(REFERENCE_ENV, None)


def main(argv) -> int:
    _unit().build_workload()  # lru-cached: exclude the build from timing
    _run_once(reference=False)  # warm caches (routes, compiled cores)
    _run_once(reference=True)
    # Interleave the samples so CPU frequency drift hits both engines
    # alike; compare best against best.
    reference_samples = []
    batched_samples = []
    for _ in range(REPEATS):
        seconds, reference_result = _run_once(reference=True)
        reference_samples.append(seconds)
        seconds, batched_result = _run_once(reference=False)
        batched_samples.append(seconds)
    reference_best = min(reference_samples)
    batched_best = min(batched_samples)
    speedup = reference_best / batched_best

    print(
        render_table(
            ["engine", "best (s)", "samples (s)"],
            [
                ["reference", reference_best,
                 " ".join(f"{s:.3f}" for s in reference_samples)],
                ["batched", batched_best,
                 " ".join(f"{s:.3f}" for s in batched_samples)],
                ["speedup", speedup, ""],
            ],
            precision=3,
        )
    )

    assert canonical_json(batched_result) == canonical_json(
        reference_result
    ), "batched and reference engines disagree — fast path is not pure"
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x faster than reference "
        f"(perf guard requires >= {MIN_SPEEDUP}x on the "
        f"{CORES}-core {CONFIG}/{WORKLOAD} scenario)"
    )

    out = argv[1] if len(argv) > 1 else os.path.join(
        RESULTS_DIR, "BENCH_engine.json"
    )
    payload = {
        "config": CONFIG,
        "workload": WORKLOAD,
        "cores": CORES,
        "accesses_per_core": ACCESSES,
        "seed": SEED,
        "cycles": batched_result.cycles,
        "batched_seconds": batched_best,
        "batched_samples": batched_samples,
        "reference_seconds": reference_best,
        "reference_samples": reference_samples,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
