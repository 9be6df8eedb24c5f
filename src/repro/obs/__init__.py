"""Observability: metrics, span tracing, the flight recorder, and exporters.

See :doc:`docs/observability.md` for the metric and span catalogues and
the JSONL schemas.  Quick tour::

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import SpanTracer, write_chrome_trace

    metrics = MetricsRegistry()
    metrics.counter("lan.messages_sent").inc()
    metrics.histogram("lan.delivery_latency_ticks").observe(3)
    print(metrics.render_scoreboard())
    metrics.write_jsonl("metrics.jsonl")

    spans = SpanTracer(seed=42, sample=1.0)
    # ... pass spans= into Kernel/BIPSSimulation/run_e2e ...
    write_chrome_trace("trace.json", spans.records())

Spans are the one record of what happened when.  A
:class:`~repro.obs.flight.FlightRecorder` passed as ``SpanTracer(recorder=...)`` keeps
the most recent ones and dumps them when a span name it is armed on
(e.g. ``core.workstation_failed``) is recorded.
"""
