"""Span tracing of local runs: wall-clock telemetry in JSONL sidecars.

A *span* is one timed operation — a ``runner.execute`` dispatch, one
unit's ``unit.exec`` with its ``unit.build``/``unit.sim`` split, a
campaign — identified by a ``(trace_id, span_id, parent_id)`` triple.
One run's spans share one ``trace_id``, so its latency can be
decomposed across layers the way the paper decomposes a translation's
cycles across L1 miss, interconnect traversal, slice lookup, and page
walk.  ``--span-out`` writes them; ``repro trace`` renders the tree.

Purity is the enforced invariant: spans are wall-clock telemetry and
live *only* in sidecar JSONL files.  They are never part of
:class:`~repro.sim.results.RunResult` bytes and never part of the
result-cache ``unit_key`` — so tracing a run cannot change what it
simulates or how it caches (``tests/obs/test_spans.py`` asserts this
literally).

Form of one span (one JSONL line, ``record: "span"``)::

    {"record": "span", "schema": 1, "trace_id": ..., "span_id": ...,
     "parent_id": ..., "name": ..., "start_s": ..., "end_s": ...,
     "status": "ok", "attrs": {...}}
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: Version of the span record layout.
SPAN_SCHEMA = 1


def new_id() -> str:
    """A fresh 16-hex-digit correlation id.

    Randomness is fine here — ids exist only in telemetry sidecars, so
    they can never perturb a cache key or a simulated outcome.
    """
    return os.urandom(8).hex()


class Span:
    """One in-flight timed operation; finished spans become records."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "start_s", "end_s",
        "status", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        start_s: Optional[float] = None,
        **attrs,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.start_s = time.time() if start_s is None else start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attrs: Dict[str, object] = dict(attrs)

    def finish(self, end_s: Optional[float] = None) -> None:
        if self.end_s is None:
            self.end_s = time.time() if end_s is None else end_s

    def to_dict(self) -> Dict[str, object]:
        return span_record(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_s=self.start_s,
            end_s=self.end_s if self.end_s is not None else self.start_s,
            status=self.status,
            attrs=self.attrs,
        )


def span_record(
    *,
    name: str,
    trace_id: str,
    start_s: float,
    end_s: float,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    status: str = "ok",
    attrs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A finished span as a plain JSONL-ready record.

    Layers that learn timings after the fact — the Runner synthesising
    a unit's ``unit.build``/``unit.sim`` children from the schema-3
    split its worker reports — build records directly instead of
    running a live :class:`Span`.
    """
    return {
        "record": "span",
        "schema": SPAN_SCHEMA,
        "trace_id": trace_id,
        "span_id": span_id if span_id is not None else new_id(),
        "parent_id": parent_id,
        "name": name,
        "start_s": round(float(start_s), 6),
        "end_s": round(float(end_s), 6),
        "status": status,
        "attrs": dict(attrs or {}),
    }


class Tracer:
    """Collects one process's finished spans for one trace.

    Not thread-safe by design — each command owns its tracer the way
    each run owns its :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_id()
        self.records: List[Dict[str, object]] = []

    def start(
        self, name: str, parent: Optional[Span] = None, **attrs
    ) -> Span:
        return Span(
            name,
            self.trace_id,
            parent_id=parent.span_id if parent is not None else None,
            **attrs,
        )

    def finish(self, span: Span) -> Span:
        span.finish()
        self.records.append(span.to_dict())
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        span = self.start(name, parent=parent, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.status = f"error: {type(exc).__name__}"
            raise
        finally:
            self.finish(span)

    def export_jsonl(self, path: str) -> int:
        return write_spans(path, self.records)


# ----------------------------------------------------------------------
# Sidecar I/O


def write_spans(path: str, records: Sequence[Dict[str, object]]) -> int:
    """Write span records as JSONL, sorted by start time; returns count."""
    ordered = sorted(
        records, key=lambda r: (r.get("start_s", 0.0), r.get("end_s", 0.0))
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        for record in ordered:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(ordered)


def load_spans(path: str) -> List[Dict[str, object]]:
    """Load span records from a JSONL sidecar; non-span lines skipped.

    Tolerant like the report loader: a span file may share a sidecar
    with other telemetry records, and malformed lines are evidence of a
    partial write, not a reason to refuse the rest.
    """
    records: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("record") == "span":
                records.append(record)
    return records


# ----------------------------------------------------------------------
# Tree analysis & rendering


def build_tree(
    records: Sequence[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], Dict[str, List[Dict[str, object]]]]:
    """``(roots, children_by_span_id)`` from flat span records.

    A span whose ``parent_id`` is absent from the record set is a root
    (partial or concatenated sidecars still render as a forest).
    """
    by_id = {str(r.get("span_id")): r for r in records}
    children: Dict[str, List[Dict[str, object]]] = {}
    roots: List[Dict[str, object]] = []
    for record in records:
        parent = record.get("parent_id")
        if parent is not None and str(parent) in by_id:
            children.setdefault(str(parent), []).append(record)
        else:
            roots.append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("start_s", 0.0), str(r.get("span_id"))))
    roots.sort(key=lambda r: (r.get("start_s", 0.0), str(r.get("span_id"))))
    return roots, children


def _duration(record: Dict[str, object]) -> float:
    try:
        return max(0.0, float(record["end_s"]) - float(record["start_s"]))
    except (KeyError, TypeError, ValueError):
        return 0.0


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += max(0.0, end - start)
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def coverage(
    record: Dict[str, object],
    children: Dict[str, List[Dict[str, object]]],
) -> Dict[str, float]:
    """Child coverage of one span: ``{duration, child_s, gap_s}``.

    ``child_s`` is the union of the children's intervals clipped to the
    parent (concurrent children are not double-counted) and ``gap_s``
    is the uncovered remainder, so ``duration == child_s + gap_s``
    holds exactly.
    """
    duration = _duration(record)
    intervals = []
    try:
        lo, hi = float(record["start_s"]), float(record["end_s"])
    except (KeyError, TypeError, ValueError):
        lo, hi = 0.0, 0.0
    for child in children.get(str(record.get("span_id")), []):
        try:
            start = max(lo, float(child["start_s"]))
            end = min(hi, float(child["end_s"]))
        except (KeyError, TypeError, ValueError):
            continue
        if end > start:
            intervals.append((start, end))
    child_s = min(duration, _interval_union(intervals))
    return {
        "duration": duration,
        "child_s": child_s,
        "gap_s": max(0.0, duration - child_s),
    }


def self_times(
    records: Sequence[Dict[str, object]],
) -> List[Tuple[float, Dict[str, object]]]:
    """``(self_seconds, record)`` pairs, largest first.

    A span's *self time* is its duration minus the union of its
    children — the part of the latency this layer is itself
    responsible for.  Ranking by self time is the critical-path table:
    the layers where an optimisation would actually move end-to-end
    latency.
    """
    _, children = build_tree(records)
    ranked = [
        (coverage(record, children)["gap_s"], record) for record in records
    ]
    ranked.sort(
        key=lambda item: (-item[0], str(item[1].get("name")),
                          str(item[1].get("span_id")))
    )
    return ranked


def render_tree(records: Sequence[Dict[str, object]], top: int = 5) -> str:
    """The ``repro trace`` rendering: tree + attribution + critical path."""
    from repro.analysis.tables import render_table

    if not records:
        return "(no span records found)"
    roots, children = build_tree(records)
    origin = min(float(r.get("start_s", 0.0)) for r in records)
    lines: List[str] = [
        f"span trace — {len(records)} span(s), {len(roots)} root(s)"
    ]

    def walk(record: Dict[str, object], depth: int) -> None:
        info = coverage(record, children)
        offset = float(record.get("start_s", 0.0)) - origin
        status = record.get("status", "ok")
        flag = "" if status == "ok" else f"  [{status}]"
        detail = ""
        kids = children.get(str(record.get("span_id")), [])
        if kids:
            detail = (f"  (children {info['child_s'] * 1000.0:.1f}ms, "
                      f"gap {info['gap_s'] * 1000.0:.1f}ms)")
        lines.append(
            f"{'  ' * depth}{record.get('name', '?')}  "
            f"+{offset * 1000.0:.1f}ms  {info['duration'] * 1000.0:.1f}ms"
            f"{detail}{flag}"
        )
        for child in kids:
            walk(child, depth + 1)

    lines.append("")
    for root in roots:
        walk(root, 0)

    total = sum(_duration(root) for root in roots)
    rows = []
    for self_s, record in self_times(records)[:top]:
        rows.append(
            [
                str(record.get("name", "?")),
                f"{_duration(record) * 1000.0:.1f}",
                f"{self_s * 1000.0:.1f}",
                f"{(self_s / total * 100.0) if total else 0.0:.1f}%",
            ]
        )
    lines.append("")
    lines.append(
        render_table(
            ["span", "total ms", "self ms", "share of trace"],
            rows,
            title=f"== critical path (top {min(top, len(rows))} by self time) ==",
        )
    )
    return "\n".join(lines)
