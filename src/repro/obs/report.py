"""Render text summaries from metric snapshots and event traces.

Two JSONL record shapes feed a report, and both can be mixed freely
across any number of input files:

* **obs files** written by :func:`write_obs_jsonl` (the CLI's
  ``--trace-out``): ``{"type": "run", ...,"metrics": {...}}`` lines
  followed by that run's ``{"type": "event", ..., "kind": ...}`` lines;
* **Runner telemetry** (``<cache-dir>/telemetry.jsonl``): one record
  per executed unit, carrying an embedded ``metrics`` snapshot when the
  unit ran with metrics enabled.

The report renders the distributional claims the paper's figures rest
on: translation/walk latency percentiles, per-link NoC utilization
heatmap rows, and the hottest shared-L2 slices.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.obs.trace import filter_window

#: ASCII heat ramp for utilization bars (cold -> hot).
HEAT_RAMP = " .:-=+*#%@"

_LINK_RE = re.compile(r"^noc\.link\.(\d+)>(\d+)\.busy_cycles$")
_SLICE_RE = re.compile(r"^tlb\.slice\.(\d+)\.(hits|misses|occupancy)$")

RunRecord = Dict[str, object]
EventRecord = Dict[str, object]


# ----------------------------------------------------------------------
# Producing and loading obs JSONL


def run_records_from(labelled_results) -> List[RunRecord]:
    """Normalise ``(config, workload, RunResult)`` triples to run records."""
    records = []
    for config_name, workload_name, result in labelled_results:
        records.append(
            {
                "type": "run",
                "config": config_name,
                "workload": workload_name,
                "cycles": result.cycles,
                "metrics": getattr(result, "metrics", None),
            }
        )
    return records


def event_records_from(labelled_results) -> List[EventRecord]:
    """Flatten the traces of ``(config, workload, RunResult)`` triples."""
    records = []
    for config_name, workload_name, result in labelled_results:
        for event in getattr(result, "trace", None) or ():
            record = {
                "type": "event",
                "config": config_name,
                "workload": workload_name,
            }
            record.update(event)
            records.append(record)
    return records


def write_obs_jsonl(path: str, labelled_results) -> int:
    """Write runs + their event traces to one obs file; returns lines.

    ``labelled_results`` is an iterable of ``(config_name,
    workload_name, RunResult)``.  Output is deterministic (sorted JSON
    keys, engine-defined event order): identical runs produce
    byte-identical files.
    """
    labelled_results = list(labelled_results)
    records: List[Dict[str, object]] = []
    records.extend(run_records_from(labelled_results))
    records.extend(event_records_from(labelled_results))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_obs_records(
    paths: Sequence[str],
) -> Tuple[List[RunRecord], List[EventRecord]]:
    """Split JSONL files into (run records, event records).

    A line is an event when it carries a ``kind``; anything else with a
    ``cycles`` or ``metrics`` field is treated as a run record (this is
    what makes Runner telemetry files directly reportable).

    Robust by design: an absent file is warned about and skipped (a
    sweep that produced no trace should not kill the report of the ones
    that did), and malformed or non-object JSONL lines are skipped —
    reporting renders whatever evidence exists.  Event kinds are passed
    through untouched, so files written by a newer schema (with kinds
    this version does not know) still render.  A path that exists but
    cannot be read as text (a directory, a binary ``.npz`` trace)
    raises ``OSError`` with a one-line ``cannot read 'PATH': ...``
    message.
    """
    runs: List[RunRecord] = []
    events: List[EventRecord] = []
    for path in paths:
        if not os.path.exists(path):
            print(f"warning: no such obs file, skipping: {path}",
                  file=sys.stderr)
            continue
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        print(
                            f"warning: skipping malformed JSONL line "
                            f"{path}:{lineno}",
                            file=sys.stderr,
                        )
                        continue
                    if not isinstance(record, dict):
                        continue
                    if "kind" in record:
                        events.append(record)
                    elif "metrics" in record or "cycles" in record:
                        runs.append(record)
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"cannot read {path!r}: {exc}") from exc
    return runs, events


# ----------------------------------------------------------------------
# Rendering


def _label(record: Dict[str, object]) -> str:
    config = record.get("config") or "?"
    workload = record.get("workload") or "?"
    return f"{config}/{workload}"


def _histogram_rows(runs: Iterable[RunRecord], name: str) -> List[List]:
    rows = []
    for record in runs:
        metrics = record.get("metrics") or {}
        histogram = (metrics.get("histograms") or {}).get(name)
        if not histogram:
            continue
        rows.append(
            [
                _label(record),
                histogram.get("count", 0),
                histogram.get("p50"),
                histogram.get("p95"),
                histogram.get("p99"),
                histogram.get("max"),
            ]
        )
    return rows


def _heat(utilization: float, peak: float) -> str:
    """One heatmap cell: a bar plus ramp character, scaled to the peak."""
    if peak <= 0:
        return HEAT_RAMP[0]
    fraction = min(utilization / peak, 1.0)
    bar = "#" * int(round(fraction * 12))
    return f"{HEAT_RAMP[int(fraction * (len(HEAT_RAMP) - 1))]}|{bar:<12}|"


def _link_rows(record: RunRecord, top: int) -> List[List]:
    metrics = record.get("metrics") or {}
    gauges = metrics.get("gauges") or {}
    links = []
    for name, busy in gauges.items():
        match = _LINK_RE.match(name)
        if not match:
            continue
        src, dst = int(match.group(1)), int(match.group(2))
        utilization = gauges.get(f"noc.link.{src}>{dst}.util", 0.0)
        links.append((busy, utilization, src, dst))
    if not links:
        return []
    links.sort(key=lambda item: (-item[0], item[2], item[3]))
    peak = max(item[1] for item in links)
    return [
        [
            _label(record),
            f"{src}>{dst}",
            busy,
            utilization,
            _heat(utilization, peak),
        ]
        for busy, utilization, src, dst in links[:top]
    ]


def _slice_rows(record: RunRecord, top: int) -> List[List]:
    metrics = record.get("metrics") or {}
    gauges = metrics.get("gauges") or {}
    slices: Dict[int, Dict[str, float]] = {}
    for name, value in gauges.items():
        match = _SLICE_RE.match(name)
        if match:
            slices.setdefault(int(match.group(1)), {})[match.group(2)] = value
    rows = []
    for index in sorted(slices):
        data = slices[index]
        hits = data.get("hits", 0)
        misses = data.get("misses", 0)
        accesses = hits + misses
        rows.append(
            [
                _label(record),
                index,
                hits,
                misses,
                hits / accesses if accesses else 0.0,
                data.get("occupancy", 0),
                accesses,
            ]
        )
    rows.sort(key=lambda row: (-row[6], row[1]))
    return [row[:6] for row in rows[:top]]


def _event_rows(
    events: Sequence[EventRecord],
    window: Optional[Tuple[Optional[int], Optional[int]]],
) -> List[List]:
    if window is not None:
        events = filter_window(events, window[0], window[1])
    by_kind: Dict[str, List[int]] = {}
    for event in events:
        try:
            cycle = int(event.get("cycle", 0))
        except (TypeError, ValueError):
            continue  # foreign record with an unusable timestamp
        by_kind.setdefault(str(event.get("kind")), []).append(cycle)
    return [
        [kind, len(cycles), min(cycles), max(cycles)]
        for kind, cycles in sorted(by_kind.items())
    ]


def _fault_rows(runs: Iterable[RunRecord]) -> List[List]:
    """One row per run that published ``faults.*`` counters."""
    rows = []
    for record in runs:
        metrics = record.get("metrics") or {}
        counters = metrics.get("counters") or {}
        faults = {
            name[len("faults."):]: value
            for name, value in counters.items()
            if isinstance(name, str) and name.startswith("faults.")
        }
        if not faults:
            continue
        rows.append(
            [
                _label(record),
                faults.get("arbiter_drops", 0),
                faults.get("fallback_messages", 0),
                faults.get("fallback_hops", 0),
                faults.get("degraded_walks", 0),
                faults.get("shootdown_retries", 0),
            ]
        )
    return rows


def render_report(
    runs: Sequence[RunRecord],
    events: Sequence[EventRecord] = (),
    top: int = 8,
    window: Optional[Tuple[Optional[int], Optional[int]]] = None,
) -> str:
    """Render the full text report for any mix of runs and events."""
    sections: List[str] = [
        f"observability report — {len(runs)} run(s), {len(events)} event(s)"
    ]

    run_rows = []
    for record in runs:
        metrics = record.get("metrics") or {}
        # build_s/sim_s exist in telemetry schema >= 3; obs records and
        # older telemetry render a "-" placeholder (whether the key is
        # absent or an explicit null).
        build_s = record.get("build_s")
        sim_s = record.get("sim_s")
        run_rows.append(
            [
                _label(record),
                record.get("cycles", "-"),
                record.get("cache", "-"),
                "-" if build_s is None else build_s,
                "-" if sim_s is None else sim_s,
                "yes" if metrics else "no",
            ]
        )
    if run_rows:
        sections.append(
            render_table(
                ["run", "cycles", "cache", "build_s", "sim_s", "metrics"],
                run_rows,
                title="== runs ==",
            )
        )

    for section_title, histogram_name in (
        ("== translation latency (stall cycles per L1 miss) ==",
         "translation.stall_cycles"),
        ("== page-walk latency (cycles) ==", "walk.latency"),
    ):
        rows = _histogram_rows(runs, histogram_name)
        if rows:
            sections.append(
                render_table(
                    ["run", "count", "p50", "p95", "p99", "max"], rows,
                    title=section_title, precision=1,
                )
            )

    link_rows = [row for record in runs for row in _link_rows(record, top)]
    if link_rows:
        sections.append(
            render_table(
                ["run", "link", "busy", "util", "heat"], link_rows,
                title=f"== NoC link utilization (top {top} per run) ==",
                precision=4,
            )
        )

    slice_rows = [row for record in runs for row in _slice_rows(record, top)]
    if slice_rows:
        sections.append(
            render_table(
                ["run", "slice", "hits", "misses", "hit_rate", "occupancy"],
                slice_rows,
                title=f"== hottest L2 slices (top {top} per run) ==",
            )
        )

    fault_rows = _fault_rows(runs)
    if fault_rows:
        sections.append(
            render_table(
                ["run", "drops", "fallbacks", "fb_hops", "degraded",
                 "sd_retries"],
                fault_rows,
                title="== fault injection ==",
            )
        )

    event_rows = _event_rows(events, window)
    if event_rows:
        suffix = ""
        if window is not None:
            suffix = f" (window {window[0] or 0}..{window[1] or 'end'})"
        sections.append(
            render_table(
                ["kind", "count", "first_cycle", "last_cycle"], event_rows,
                title=f"== events{suffix} ==",
            )
        )

    if len(sections) == 1:
        sections.append(
            "(no metric snapshots or events found — run with metrics/trace "
            "enabled, e.g. `repro run --metrics --trace-out obs.jsonl`)"
        )
    return "\n\n".join(sections)
