"""Observability: metrics, span tracing, the flight recorder, and exporters.

See :doc:`docs/observability.md` for the metric and span catalogues and
the JSONL schemas.  Quick tour::

    from repro.obs import MetricsRegistry, SpanTracer

    metrics = MetricsRegistry()
    metrics.counter("lan.messages_sent").inc()
    metrics.histogram("lan.delivery_latency_ticks").observe(3)
    print(metrics.render_scoreboard())
    metrics.write_jsonl("metrics.jsonl")

    spans = SpanTracer(seed=42, sample=1.0)
    # ... pass spans= into Kernel/BIPSSimulation/run_e2e ...
    write_chrome_trace("trace.json", spans.records())

Spans are the one record of what happened when.  A
:class:`FlightRecorder` passed as ``SpanTracer(recorder=...)`` keeps
the most recent ones and dumps them when a span name it is armed on
(e.g. ``core.workstation_failed``) is recorded.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    snapshot_from_jsonl,
)
from repro.obs.tracing import (
    Span,
    SpanTracer,
    TraceContext,
    chrome_trace,
    merge_worker_spans,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "TraceContext",
    "chrome_trace",
    "merge_worker_spans",
    "snapshot_from_jsonl",
    "write_chrome_trace",
    "write_spans_jsonl",
]
