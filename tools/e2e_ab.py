#!/usr/bin/env python
"""A/B the end-to-end benchmark between two source trees.

    python3 tools/e2e_ab.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs 3] [--seconds 30] [--seed 3]

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds N
--trace 0`` once in each tree, one process at a time.  The pairs
alternate which tree runs first, starting with the parent, so a drift
of the host's speed does not land on one side only.  A run's result is
the last line of its standard output (one JSON object).

For each end-to-end metric that ``BENCHMARK.json`` declares, the summary
prints the metric's bound, both trees' medians with their lower and
upper quartiles and ranges, the change's median as a percentage of the
parent's, how many pairs the change won in the metric's ``better``
direction (ties count for neither side), and a verdict:

* ``worse``: the change's median is worse than the parent's by more
  than the bound (a fraction of the parent's median);
* ``unresolved``: the parent's quartile spread is wider than the bound,
  so the runs cannot tell, unless every change run beats every parent
  run;
* ``ok``: neither.

It names every run that is not ``correct``; the exit status is 1 when
any run failed, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def declared_metrics() -> List[Dict]:
    """The end-to-end metrics (name, unit, better, bound)
    ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


def parse_result(line: str) -> Tuple[Optional[Dict[str, float]], str]:
    """One run's metric values and, for a run that failed, why.

    A run fails when its last output line is not a JSON result or the
    result is not ``correct``; a failed run's values are still returned
    when it printed them.
    """
    try:
        result = json.loads(line)
    except ValueError:
        return None, "printed no JSON result"
    if not isinstance(result, dict) or "metrics" not in result:
        return None, "printed no JSON result"
    values = {
        name: entry["value"] for name, entry in result["metrics"].items()
    }
    if not result.get("correct"):
        return values, (
            f"not correct ({result.get('failed', '?')} of "
            f"{result.get('attempted', '?')} operations failed)"
        )
    return values, ""


def _fmt(value: float) -> str:
    return format(value, ",.5g")


def quartiles(values: List[float]) -> Tuple[float, float]:
    """The lower and upper quartiles of ``values`` (linear
    interpolation between order statistics, as numpy's default)."""
    if len(values) < 2:
        return values[0], values[0]
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower, upper


def verdict(metric: Dict, parent: List[float], change: List[float]) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric's runs (see
    the module docstring); ``-`` when the metric has no bound or the
    parent's median is 0."""
    bound = metric.get("bound")
    base = statistics.median(parent)
    if bound is None or not base:
        return "-"
    sign = 1.0 if metric["better"] == "higher" else -1.0
    if sign * (base - statistics.median(change)) / abs(base) > bound:
        return "worse"
    lower, upper = quartiles(parent)
    if (upper - lower) / abs(base) > bound and not (
        min(sign * value for value in change)
        > max(sign * value for value in parent)
    ):
        return "unresolved"
    return "ok"


def summarize(
    metrics: List[Dict], parent: List[str], change: List[str]
) -> Tuple[str, bool]:
    """The A/B table for the runs' last output lines, and whether every
    run succeeded.  ``parent[i]`` and ``change[i]`` form pair ``i``."""
    runs = {"parent": [], "change": []}
    problems = []
    for side, lines in (("parent", parent), ("change", change)):
        for number, line in enumerate(lines, 1):
            values, problem = parse_result(line)
            runs[side].append(values or {})
            if problem:
                problems.append(f"{side} run {number}: {problem}")
    rows = [["metric", "unit", "better", "bound",
             "parent median [quartiles] (range)",
             "change median [quartiles] (range)", "change", "pairs won",
             "verdict"]]
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        bound = metric.get("bound")
        head = [name, metric["unit"], metric["better"],
                "-" if bound is None else f"{bound:.0%}"]
        cells = [
            [run[name] for run in runs[side] if name in run]
            for side in ("parent", "change")
        ]
        if not all(cells):
            rows.append(head + ["-"] * 5)
            continue
        medians = [statistics.median(values) for values in cells]
        pairs = [
            (a[name], b[name])
            for a, b in zip(runs["parent"], runs["change"])
            if name in a and name in b
        ]
        won = sum(1 for a, b in pairs if sign * (b - a) > 0)
        delta = (
            f"{(medians[1] - medians[0]) / abs(medians[0]):+.1%}"
            if medians[0] else "-"
        )
        rows.append(head + [
            *(f"{_fmt(median)} [{'–'.join(map(_fmt, quartiles(values)))}] "
              f"({_fmt(min(values))}–{_fmt(max(values))})"
              for median, values in zip(medians, cells)),
            delta, f"{won}/{len(pairs)}", verdict(metric, *cells),
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
             .rstrip() for row in rows]
    lines += problems or ["every run correct"]
    return "\n".join(lines), not problems


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """One benchmark run in ``tree``; returns its last output line."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for tree in (args.parent, args.change):
        if not (tree / RUNNER).is_file():
            parser.error(f"{tree} has no {RUNNER}")
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            tree = getattr(args, side)
            print(f"pair {pair + 1}/{args.pairs}: {side} ({tree})",
                  file=sys.stderr, flush=True)
            results[side].append(
                run_once(tree, args.workload, args.seed, args.seconds)
            )
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pair(s) of "
          f"{args.seconds:g} s runs: parent {args.parent}, "
          f"change {args.change}")
    text, ok = summarize(
        declared_metrics(), results["parent"], results["change"]
    )
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
