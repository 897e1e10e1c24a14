"""``repro.obs`` — observability: metrics, histograms, event tracing.

The subsystem has four layers:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket + streaming-quantile histograms, written to
  through a *sink*.  The module-level :data:`NULL_SINK` is a no-op;
  instrumented components call it unconditionally, so disabled
  observability costs nothing on hot paths and zero branches anywhere.
* :mod:`repro.obs.trace` — :class:`EventTrace`, a ring buffer of typed
  events (L1/L2 lookups, NOCSTAR/SMART path setups, walks, shootdowns,
  storm flushes) with time-window filtering and JSONL export.
* :mod:`repro.obs.report` — text rendering of latency percentiles,
  per-link NoC utilization heatmap rows, and hottest-slice tables from
  any mix of obs files and Runner telemetry (the ``repro report`` CLI).
* :mod:`repro.obs.spans` — local span tracing of the Runner
  (``runner.execute`` → ``unit.exec`` → ``unit.build``/``unit.sim``)
  and campaigns, written as JSONL sidecars by ``--span-out`` and
  rendered as a tree with a critical-path table by ``repro trace``.

Everything is deterministic: metric values and event timestamps are
simulation cycles, never wall clock, so serial, parallel, and
cache-replayed runs produce byte-identical snapshots and traces — and
because observation never changes simulated behaviour,
``ENGINE_VERSION`` is unaffected by turning it on or off.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    NullSink,
    NULL_SINK,
    StreamingQuantile,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    EVENT_KINDS,
    EventTrace,
    filter_window,
)
from repro.obs.report import (
    load_obs_records,
    render_report,
    run_records_from,
    write_obs_jsonl,
)
from repro.obs.spans import (
    SPAN_SCHEMA,
    Span,
    Tracer,
    build_tree,
    load_spans,
    render_tree,
    span_record,
    write_spans,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "StreamingQuantile",
    "MetricsRegistry",
    "MetricsSink",
    "NullSink",
    "NULL_SINK",
    "DEFAULT_LATENCY_BUCKETS",
    "EventTrace",
    "EVENT_KINDS",
    "DEFAULT_CAPACITY",
    "filter_window",
    "load_obs_records",
    "render_report",
    "run_records_from",
    "write_obs_jsonl",
    "SPAN_SCHEMA",
    "Span",
    "Tracer",
    "build_tree",
    "load_spans",
    "render_tree",
    "span_record",
    "write_spans",
]
