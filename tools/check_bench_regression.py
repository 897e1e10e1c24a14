#!/usr/bin/env python
"""Benchmark trend gate: fail on >15% regression vs the committed run.

Each ``benchmarks/BENCH_*.json`` artefact carries one headline latency
metric (chosen per file below).  This script compares the *fresh*
working-tree artefacts against a *baseline* — by default the last
committed version of the same file (``git show HEAD:<path>``), or any
directory of artefacts via ``--baseline-dir`` — and exits non-zero when
a fresh metric exceeds its baseline by more than ``--threshold``
(default 15%).

Wired into ``make verify`` (after the bench smokes regenerate the
artefacts) and CI, so a perf regression fails the gate with a table
instead of silently shifting the committed trajectory:

* ``BENCH_engine.json`` — ``batched_seconds`` (engine fast-path wall
  time; lower is better);
* ``BENCH_sweep.json``  — ``after_seconds`` (trace-store sweep wall
  time);
* ``BENCH_scale.json``  — ``scale_ratio`` (1024-core vectorized wall
  time over the 64-core batched anchor; interleaved best-of-N, so the
  ratio cancels machine speed and only engine drift moves it);
* ``BENCH_faults.json`` — fault-free ``cycles`` (rate-0 point; the
  engine is deterministic, so any growth is a real simulation change,
  not noise).

A missing baseline (first run of a new benchmark, or a checkout with no
git history) is a *pass with a warning*: the gate guards trends, and a
trend needs two points.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

#: Default artefact set (all four guards), relative to the repo root.
DEFAULT_FILES = (
    "benchmarks/results/BENCH_engine.json",
    "benchmarks/results/BENCH_sweep.json",
    "benchmarks/results/BENCH_scale.json",
    "benchmarks/results/BENCH_faults.json",
)

#: Regression threshold: fresh > baseline * (1 + this) fails.
DEFAULT_THRESHOLD = 0.15


def extract_metric(basename: str, payload: Dict) -> Tuple[str, float]:
    """``(metric_name, value)`` of one artefact's headline metric.

    Raises ``KeyError`` on an artefact that lacks its metric — a
    malformed artefact must fail the gate loudly, not pass as 0.
    """
    if basename == "BENCH_engine.json":
        return "batched_seconds", float(payload["batched_seconds"])
    if basename == "BENCH_sweep.json":
        return "after_seconds", float(payload["after_seconds"])
    if basename == "BENCH_scale.json":
        return "scale_ratio", float(payload["scale_ratio"])
    if basename == "BENCH_faults.json":
        for point in payload["points"]:
            if point.get("rate") == 0.0:
                return "cycles@rate=0", float(point["cycles"])
        raise KeyError("no rate-0 point in BENCH_faults.json")
    raise KeyError(f"no metric rule for {basename!r}")


def load_baseline(
    path: str, baseline_dir: Optional[str]
) -> Optional[Dict]:
    """The baseline artefact for ``path``, or ``None`` when absent.

    ``--baseline-dir`` wins; otherwise the committed version is read
    with ``git show HEAD:<relpath>`` so the gate compares against the
    trajectory the repository actually records.
    """
    basename = os.path.basename(path)
    if baseline_dir is not None:
        candidate = os.path.join(baseline_dir, basename)
        if not os.path.exists(candidate):
            return None
        with open(candidate) as fh:
            return json.load(fh)
    relpath = os.path.relpath(path).replace(os.sep, "/")
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{relpath}"],
            capture_output=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def check_file(
    path: str, baseline_dir: Optional[str], threshold: float
) -> Dict[str, object]:
    """One artefact's verdict row (see the table rendering in main)."""
    basename = os.path.basename(path)
    row: Dict[str, object] = {
        "file": basename,
        "metric": None,
        "baseline": None,
        "fresh": None,
        "ratio": None,
        "status": "ok",
    }
    if not os.path.exists(path):
        row["status"] = "missing-fresh"
        return row
    with open(path) as fh:
        fresh_payload = json.load(fh)
    try:
        metric, fresh = extract_metric(basename, fresh_payload)
    except KeyError as exc:
        row["status"] = f"malformed: {exc}"
        return row
    row["metric"] = metric
    row["fresh"] = fresh
    baseline_payload = load_baseline(path, baseline_dir)
    if baseline_payload is None:
        row["status"] = "no-baseline"
        return row
    try:
        _, baseline = extract_metric(basename, baseline_payload)
    except KeyError as exc:
        row["status"] = f"malformed-baseline: {exc}"
        return row
    row["baseline"] = baseline
    if baseline <= 0.0:
        row["status"] = "no-baseline"
        return row
    ratio = fresh / baseline
    row["ratio"] = ratio
    if ratio > 1.0 + threshold:
        row["status"] = "REGRESSION"
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >threshold regression of BENCH_*.json "
        "metrics vs the committed (or --baseline-dir) artefacts"
    )
    parser.add_argument(
        "files",
        nargs="*",
        default=list(DEFAULT_FILES),
        help="fresh artefacts to check (default: all four guards)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional growth (default 0.15 = +15%%)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help="directory of baseline artefacts (default: git show HEAD:)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0.0:
        parser.error("--threshold must be >= 0")

    rows = [
        check_file(path, args.baseline_dir, args.threshold)
        for path in args.files
    ]
    width = max(len(str(row["file"])) for row in rows) if rows else 0
    failed = False
    for row in rows:
        metric = row["metric"] or "-"
        fmt = (
            lambda v: f"{v:.6g}"
            if isinstance(v, float)
            else "-"
        )
        ratio = row["ratio"]
        delta = (
            f"{(ratio - 1.0) * 100.0:+.1f}%" if ratio is not None else "-"
        )
        status = row["status"]
        if status == "REGRESSION" or status.startswith("malformed"):
            failed = True
        elif status in ("no-baseline", "missing-fresh"):
            print(
                f"[warn] {row['file']}: {status} (pass — a trend "
                f"needs two points)",
                file=sys.stderr,
            )
        print(
            f"{str(row['file']):<{width}}  {metric:<16} "
            f"base={fmt(row['baseline']):<10} "
            f"fresh={fmt(row['fresh']):<10} {delta:>7}  {status}"
        )
    if failed:
        print(
            f"\nFAIL: regression beyond +{args.threshold * 100.0:.0f}% "
            f"(or malformed artefact) — see rows above",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: all metrics within +{args.threshold * 100.0:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
