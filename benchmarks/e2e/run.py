"""End-to-end benchmark of the simulator: host time, memory and layers.

Four workloads (see README.md): ``paper-64``, ``mega-1024``,
``storm-64`` and ``campaign-smoke``.  Every timed sample is a fresh
child process, run one at a time, so caches start cold as they do for a
user's ``repro run``.  Run from the repository root:

    python3 benchmarks/e2e/run.py [--seed N] [--out FILE]
        Untimed warm-up per workload, timed samples round-robin across
        workloads, then one traced sample per workload.  Prints every
        end-to-end metric with its unit, the per-layer breakdown, and
        writes a result file (default benchmarks/e2e/.results/latest.json).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        One workload for at most about S seconds, warm-up included.  The
        last line of standard output is one JSON object: the end-to-end
        metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 benchmarks/e2e/run.py compare BASE.json HEAD.json
        One row per workload and end-to-end metric with a verdict.

    python3 benchmarks/e2e/run.py pin
        Rewrite pins.json from fresh runs at the pinned seeds, after a
        deliberate model change.

Exits non-zero when any output check fails.  The benchmark never sets
REPRO_VECTORIZED_ENGINE or REPRO_REFERENCE_ENGINE and removes them from
the children's environment, so it measures the engine the code chooses
by default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from child import WORKLOADS
from child import main as child_main
from layers import COUNTED, LAYERS, MODEL_COUNTERS, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = HERE / ".results"
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Timed samples per workload in the full run.
SAMPLES = {"paper-64": 7, "mega-1024": 5, "storm-64": 7, "campaign-smoke": 5}
DEFAULT_SEED = 3
PIN_SEEDS = (3, 17)
CHILD_TIMEOUT_S = 60
ENGINE_ENV = ("REPRO_VECTORIZED_ENGINE", "REPRO_REFERENCE_ENGINE")

#: Compared beside the metrics BENCHMARK.json declares, which must never
#: read 0 and so cannot include it.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower",
              "bound": 0.0}

#: The host seconds behind the reference-normalised metrics: printed and
#: stored, but given no verdict, because a neighbour's busy spell moves
#: every sample of a run together.
RAW_METRICS = [
    {"name": "wall_s", "unit": "s"},
    {"name": "setup_raw_s", "unit": "s"},
    {"name": "sim_s", "unit": "s"},
    {"name": "l2_tx_per_s", "unit": "1/s"},
]


def load_json(path: Path) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def declared_metrics() -> List[Dict]:
    return load_json(BENCHMARK)["end_to_end"]


def all_metrics() -> List[Dict]:
    return declared_metrics() + [ERROR_RATE] + RAW_METRICS


# ----------------------------------------------------------------------
# statistics


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(base: List[float], head: List[float], better: str,
            bound: float) -> str:
    """improved / unchanged / worse / unresolved for one metric.

    improved: the head wins at least nine tenths of the index-paired
    samples and the medians differ by more than the base's quartile
    spread.  Otherwise a base spread wider than the bound is
    unresolved, unless every head sample beats every base sample; a
    head median worse than the base's by more than the bound is worse.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, h = summarize(base), summarize(head)
    pairs = list(zip(base, head))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = b["q3"] - b["q1"]
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(h["median"] - b["median"]) > spread):
        return "improved"
    scale = abs(b["median"]) or 1.0
    dominates = all(sign * (y - x) > 0 for x in base for y in head)
    if spread / scale > bound and not dominates:
        return "unresolved"
    if sign * (h["median"] - b["median"]) < -bound * scale:
        return "worse"
    return "unchanged"


# ----------------------------------------------------------------------
# children


def spawn(workload: str, seed: int, mode: str) -> Dict:
    """Run one child (``mode`` as in :mod:`child`) in a fresh
    interpreter; returns its JSON output plus the parent-measured
    ``wall_s`` (``crashed`` on failure)."""
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, str(HERE / "run.py"), "_child", workload,
           str(seed), mode, str(SCRATCH)]
    began = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S}s",
                "wall_s": time.perf_counter() - began}
    wall = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"child exited with code {proc.returncode}",
                "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


class WorkloadRun:
    """Samples of one workload at one seed, with their output checks."""

    def __init__(self, workload: str, seed: int, pins: Dict) -> None:
        self.workload = workload
        self.seed = seed
        pinned = pins.get(str(seed), {}).get(workload)
        self.pinned = pinned is not None
        #: Reference digests: the pins, else the first sample's.
        self.expected: Optional[Dict[str, str]] = (
            dict(pinned) if pinned else None
        )
        self.samples: List[Dict[str, float]] = []
        self.traced: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.crashed = False

    @property
    def digest_note(self) -> str:
        if self.workload == "campaign-smoke":
            return ("campaign checked against its drift pins; summaries "
                    "compared across samples")
        if self.pinned:
            return f"digests checked against the pins for seed {self.seed}"
        return (f"digest check skipped for seed {self.seed} (pinned: "
                f"{', '.join(map(str, PIN_SEEDS))}); digests compared "
                "across samples")

    def add(self, out: Dict, kind: str) -> None:
        """Record one child's output; ``kind`` is ``warmup`` (untimed
        set-up), ``setup``, ``sample`` or ``traced``."""
        if "crashed" in out:
            self.crashed = True
            units = len(self.expected or {}) or 1
            self.attempted += units
            self.failed += units
            self.problems.append(out["crashed"])
            if kind == "sample":
                self.samples.append({"error_rate": 1.0})
            return
        if kind == "setup":
            self.samples.append({"setup_s": out["setup_s"],
                                 "setup_raw_s": out["setup_raw_s"]})
        if kind in ("warmup", "setup"):
            return
        traced = kind == "traced"
        if self.expected is None and not out["failed"]:
            self.expected = dict(out["digests"])
        failed = set(out["failed"])
        for label, value in out["digests"].items():
            if self.expected is not None and self.expected.get(label) != value:
                failed.add(label)
                self.problems.append(
                    f"{label}: {'traced ' if traced else ''}digest "
                    f"{value[:12]} != expected "
                    f"{(self.expected.get(label) or 'none')[:12]}"
                )
        self.problems.extend(out["problems"])
        self.attempted += out["attempted"]
        self.failed += len(failed)
        if traced:
            if not out["identity"]:
                self.problems.append("traced self times do not sum to the "
                                     "root span totals")
            self.traced.append(out)
            return
        # The child's reference ticks are not part of its work.
        wall_s = out["wall_s"] - out["probe_s"]
        self.samples.append({
            "wall_ref": wall_s / out["ref_s"],
            "setup_s": out["setup_s"],
            "sim_ref": out["sim_ref"],
            "l2_tx_per_ref": out["l2_tx"] / out["sim_ref"],
            "peak_rss_mb": out["peak_rss_mb"],
            "wall_s": wall_s,
            "setup_raw_s": out["setup_raw_s"],
            "sim_s": out["sim_s"],
            "l2_tx_per_s": out["l2_tx"] / out["sim_s"],
            "ref_s": out["ref_s"],
            "error_rate": len(failed) / out["attempted"],
        })

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def summary(self) -> Dict[str, Dict]:
        out = {}
        for metric in all_metrics():
            values = [s[metric["name"]] for s in self.samples
                      if metric["name"] in s]
            if values:
                out[metric["name"]] = dict(summarize(values),
                                           unit=metric["unit"])
        return out

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metric values from the traced samples."""
        if not self.traced:
            return {}
        first = self.traced[0]
        for other in self.traced[1:]:
            calls = {k: v["calls"] for k, v in other["layers"].items()}
            if (calls != {k: v["calls"] for k, v in first["layers"].items()}
                    or other["counters"] != first["counters"]):
                self.problems.append("traced call counts or model counters "
                                     "differ between traced samples")
        values: Dict[str, float] = {}
        for layer in LAYERS:
            for key in ("self_s", "share"):
                values[f"{layer}.{key}"] = statistics.median(
                    t["layers"][layer][key] for t in self.traced
                )
            values[f"{layer}.calls"] = first["layers"][layer]["calls"]
        for name in COUNTED:
            values[f"{name}.calls"] = first["drive_calls"][name]
        for name in MODEL_COUNTERS:
            values[name] = first["counters"][name]
        # Traced samples run without ticks, so compare host seconds.
        untraced = [s["sim_s"] for s in self.samples if "sim_s" in s]
        if untraced:
            values["trace_overhead"] = statistics.median(
                t["sim_s"] for t in self.traced
            ) / statistics.median(untraced)
        wanted = {name for name, _ in per_layer_names()}
        return {k: v for k, v in values.items() if k in wanted}

    def record(self) -> Dict:
        return {
            "samples": self.samples,
            "summary": self.summary(),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest_check": self.digest_note,
            "digests": self.expected,
            "traced": self.traced,
        }


# ----------------------------------------------------------------------
# reporting


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def table(headers: List[str], rows: List[List]) -> str:
    cells = [headers] + [[fmt(c) if not isinstance(c, str) else c
                          for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells
    )


def print_summary(runs: Dict[str, WorkloadRun]) -> None:
    rows = []
    for name, run in runs.items():
        for metric, s in run.summary().items():
            rows.append([name, metric, s["median"], s["q1"], s["q3"],
                         s["n"], s["unit"]])
    print(table(["workload", "metric", "median", "q1", "q3", "n", "unit"],
                rows))
    print("(no tail percentile: with n < 21 none has ten samples beyond it; "
          "ref = one reference tick)")
    for name, run in runs.items():
        refs = [s["ref_s"] for s in run.samples if "ref_s" in s]
        if refs:
            print(f"{name}: reference tick median "
                  f"{statistics.median(refs) * 1e3:.3f} ms")
        print(f"{name}: attempted {run.attempted}, failed {run.failed}; "
              f"{run.digest_note}")
        for problem in run.problems:
            print(f"  FAIL {problem}")


def print_traced(run: WorkloadRun) -> None:
    if not run.traced:
        return
    traced = run.traced[0]
    print(f"\n== traced: {run.workload} (shares of the traced total "
          f"{traced['traced_total_s']:.3f} s; self times sum to it: "
          f"{'yes' if traced['identity'] else 'NO'}) ==")
    layers = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    print(table(["layer", "self_s", "share", "calls"],
                [[k, v["self_s"], v["share"], v["calls"]]
                 for k, v in layers if v["calls"]]))
    values = run.per_layer()
    counters = ([f"{name}.calls" for name in COUNTED] + list(MODEL_COUNTERS)
                + ["trace_overhead"])
    print(table(["counter", "value"],
                [[k, values[k]] for k in counters if k in values]))
    for unit in traced.get("units", []):
        sends = sum(v["calls"] for k, v in unit["layers"].items()
                    if k.endswith(".send"))
        print(f"  unit {unit['unit']}: top layer {unit['top_layer']}, "
              f"interconnect sends {sends}")
    for target in traced["absent"]:
        print(f"  absent: {target}")


def metadata(seed: int, mode: str) -> Dict:
    # The ceiling keeps git from reporting a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True, env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "schema": 1,
        "mode": mode,
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def write_result(path: Path, seed: int, mode: str,
                 runs: Dict[str, WorkloadRun]) -> None:
    payload = metadata(seed, mode)
    payload["workloads"] = {name: run.record() for name, run in runs.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# modes


def run_full(seed: int, out: Path, pins: Dict) -> int:
    runs = {w: WorkloadRun(w, seed, pins) for w in WORKLOADS}
    for name, run in runs.items():
        run.add(spawn(name, seed, "setup"), "warmup")
    for i in range(max(SAMPLES.values())):
        for name, run in runs.items():
            if i < SAMPLES[name]:
                run.add(spawn(name, seed, "sample"), "sample")
                run.add(spawn(name, seed, "setup"), "setup")
    for name, run in runs.items():
        run.add(spawn(name, seed, "traced"), "traced")
    print_summary(runs)
    for run in runs.values():
        print_traced(run)
    write_result(out, seed, "full", runs)
    return 0 if all(run.correct for run in runs.values()) else 1


def run_contract(workload: str, seed: int, seconds: float, trace: bool,
                 pins: Dict, out: Optional[Path] = None,
                 spawn=spawn) -> int:
    """Rounds of one timed sample plus one set-up (``trace``: one traced)
    child, after an untimed set-up warm-up, while the next round is
    expected to end within ``seconds`` of the start; at least one."""
    began = time.perf_counter()
    run = WorkloadRun(workload, seed, pins)
    run.add(spawn(workload, seed, "setup"), "warmup")
    rounds_began = time.perf_counter()
    rounds = 0
    # A crashed child fails the run; stop rather than risk the deadline.
    while not run.crashed:
        run.add(spawn(workload, seed, "sample"), "sample")
        second = "traced" if trace else "setup"
        run.add(spawn(workload, seed, second), second)
        rounds += 1
        now = time.perf_counter()
        if now - began + (now - rounds_began) / rounds > seconds:
            break
    if trace:
        values = run.per_layer()
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer_names()}
        print_traced(run)
    else:
        summary = run.summary()
        metrics = {m["name"]: {"value": summary[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in declared_metrics() if m["name"] in summary}
        print_summary({workload: run})
    if out is not None:
        write_result(out, seed, "contract", {workload: run})
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


def run_compare(base_path: str, head_path: str) -> int:
    """Verdicts, and exit 1 on any ``worse``, for the declared metrics
    and ``error_rate``; the raw host seconds are shown for information."""
    base, head = load_json(Path(base_path)), load_json(Path(head_path))
    rows = []
    worse = False
    for name in WORKLOADS:
        if name not in base["workloads"] or name not in head["workloads"]:
            continue
        b_samples = base["workloads"][name]["samples"]
        h_samples = head["workloads"][name]["samples"]
        for metric in all_metrics():
            key = metric["name"]
            b = [s[key] for s in b_samples if key in s]
            h = [s[key] for s in h_samples if key in s]
            if not b or not h:
                continue
            sb, sh = summarize(b), summarize(h)
            if "bound" in metric:
                v = verdict(b, h, metric["better"], metric["bound"])
                worse = worse or v == "worse"
            else:
                v = "(info)"
            rows.append([name, key, sb["median"], sb["q1"], sb["q3"],
                         sh["median"], sh["q1"], sh["q3"], v])
    print(table(["workload", "metric", "base", "base_q1", "base_q3", "head",
                 "head_q1", "head_q3", "verdict"], rows))
    return 1 if worse else 0


def run_pin() -> int:
    pins: Dict[str, Dict] = {}
    for seed in PIN_SEEDS:
        for name in WORKLOADS:
            if name == "campaign-smoke":
                continue
            out = spawn(name, seed, "sample")
            if "crashed" in out or out["failed"]:
                print(f"{name} seed {seed}: {out.get('crashed') or out['problems']}",
                      file=sys.stderr)
                return 1
            pins.setdefault(str(seed), {})[name] = out["digests"]
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")
    return 0


def main(argv: List[str]) -> int:
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json HEAD.json", file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    if argv[:1] == ["pin"]:
        return run_pin()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    pins = load_json(PINS)
    if args.workload is None:
        return run_full(args.seed, args.out or SCRATCH / "latest.json", pins)
    seconds = args.seconds or load_json(BENCHMARK)["run_seconds"]
    return run_contract(args.workload, args.seed, seconds, bool(args.trace),
                        pins, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
