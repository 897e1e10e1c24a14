"""Span tracing: tracers, tree analysis, sidecars, and purity."""

import time

import pytest

from repro.exec.cache import unit_key
from repro.obs.spans import (
    SPAN_SCHEMA,
    Tracer,
    build_tree,
    coverage,
    load_spans,
    render_tree,
    self_times,
    span_record,
    write_spans,
)
from repro.sim.configs import nocstar
from repro.sim.engine import ENGINE_VERSION
from repro.sim.scenario import Scenario


# ----------------------------------------------------------------------
# spans and tracers

def test_tracer_records_nested_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", parent=outer, label="x"):
            pass
    assert [r["name"] for r in tracer.records] == ["inner", "outer"]
    inner, outer_rec = tracer.records
    assert inner["parent_id"] == outer_rec["span_id"]
    assert inner["trace_id"] == outer_rec["trace_id"] == tracer.trace_id
    assert inner["attrs"] == {"label": "x"}
    assert all(r["schema"] == SPAN_SCHEMA for r in tracer.records)


def test_tracer_span_marks_error_status():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    assert tracer.records[0]["status"] == "error: ValueError"


# ----------------------------------------------------------------------
# sidecar I/O

def test_write_load_round_trip_sorted(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    records = [
        span_record(name="late", trace_id="t", start_s=5.0, end_s=6.0),
        span_record(name="early", trace_id="t", start_s=1.0, end_s=2.0),
    ]
    assert write_spans(path, records) == 2
    loaded = load_spans(path)
    assert [r["name"] for r in loaded] == ["early", "late"]


def test_load_spans_tolerates_foreign_lines(tmp_path):
    path = tmp_path / "mixed.jsonl"
    span = span_record(name="s", trace_id="t", start_s=0.0, end_s=1.0)
    import json
    path.write_text(
        json.dumps(span) + "\n"
        + '{"type": "run", "cycles": 1}\n'
        + "not json at all\n"
        + "\n"
    )
    loaded = load_spans(str(path))
    assert len(loaded) == 1 and loaded[0]["name"] == "s"


# ----------------------------------------------------------------------
# tree analysis

def _tree_records():
    root = span_record(name="root", trace_id="t", span_id="r",
                       start_s=0.0, end_s=10.0)
    a = span_record(name="a", trace_id="t", span_id="a", parent_id="r",
                    start_s=1.0, end_s=4.0)
    b = span_record(name="b", trace_id="t", span_id="b", parent_id="r",
                    start_s=3.0, end_s=6.0)  # overlaps a by 1s
    leaf = span_record(name="leaf", trace_id="t", span_id="l",
                       parent_id="a", start_s=1.0, end_s=4.0)
    return [root, a, b, leaf]


def test_build_tree_and_orphan_roots():
    records = _tree_records()
    orphan = span_record(name="orphan", trace_id="t", parent_id="missing",
                         start_s=0.5, end_s=0.6)
    roots, children = build_tree(records + [orphan])
    assert [r["name"] for r in roots] == ["root", "orphan"]
    assert [c["name"] for c in children["r"]] == ["a", "b"]


def test_coverage_identity_with_overlapping_children():
    records = _tree_records()
    _, children = build_tree(records)
    info = coverage(records[0], children)
    # a covers [1,4), b covers [3,6): union is 5s of the 10s root.
    assert info["duration"] == pytest.approx(10.0)
    assert info["child_s"] == pytest.approx(5.0)
    assert info["gap_s"] == pytest.approx(5.0)
    assert info["duration"] == pytest.approx(info["child_s"] + info["gap_s"])


def test_coverage_clips_children_to_parent():
    parent = span_record(name="p", trace_id="t", span_id="p",
                         start_s=2.0, end_s=4.0)
    wide = span_record(name="w", trace_id="t", parent_id="p",
                       start_s=0.0, end_s=10.0)
    _, children = build_tree([parent, wide])
    info = coverage(parent, children)
    assert info["child_s"] == pytest.approx(2.0)
    assert info["gap_s"] == pytest.approx(0.0)


def test_self_times_ranks_by_uncovered_time():
    ranked = self_times(_tree_records())
    names = [record["name"] for _, record in ranked]
    # root has 5s uncovered; leaf fully covers a (0s self).
    assert names[0] == "root"
    assert ranked[0][0] == pytest.approx(5.0)
    by_name = {record["name"]: self_s for self_s, record in ranked}
    assert by_name["a"] == pytest.approx(0.0)
    assert by_name["leaf"] == pytest.approx(3.0)


def test_render_tree_shows_hierarchy_and_critical_path():
    text = render_tree(_tree_records(), top=3)
    assert "span trace — 4 span(s), 1 root(s)" in text
    assert "critical path" in text
    lines = text.splitlines()
    root_line = next(line for line in lines if line.startswith("root"))
    assert "10000.0ms" in root_line
    a_line = next(line for line in lines if line.strip().startswith("a "))
    assert a_line.startswith("  ")  # indented under root


def test_render_tree_empty():
    assert "no span records" in render_tree([])


# ----------------------------------------------------------------------
# purity: span/timestamp data can never reach a cache key

def test_unit_key_has_no_wall_clock_inputs():
    """Tracing is a pure observer: the result-cache key is a function
    of the scenario alone, so two identical units keyed seconds apart
    (with tracing on or off) hit the same cache entry."""
    scenario = Scenario(configurations=(nocstar(4),), workloads=("gups",),
                        accesses_per_core=100, seed=1)
    unit = scenario.units()[0]
    first = unit_key(unit, ENGINE_VERSION)
    time.sleep(0.01)
    assert unit_key(unit, ENGINE_VERSION) == first
