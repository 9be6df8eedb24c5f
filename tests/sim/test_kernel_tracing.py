"""Traced kernel events and the event-counter exactness contract.

A kernel with a :class:`SpanTracer` attached wraps each labelled
callback in its ``kernel`` span as it queues it and drains through the
same loop as an untraced kernel; these tests pin that it fires the
exact same events, in the same order, with the same clock and counters
as an untraced kernel — and that the drain's local event count is exact
at every run boundary.
"""

from __future__ import annotations

from repro.obs.tracing import SpanTracer
from repro.sim.kernel import Kernel


def _workload(kernel, log):
    """Schedule a representative mix: labels, plain posts, a cancel."""
    for tick in (5, 3, 9):
        kernel.post_at(tick, lambda t=tick: log.append(("post", t, kernel.now)))
    handle = kernel.schedule_at(4, lambda: log.append(("label", 4, kernel.now)),
                                label="window")
    doomed = kernel.schedule_at(6, lambda: log.append(("doomed", 6, kernel.now)),
                                label="doomed")
    doomed.cancel()
    kernel.schedule_at(7, lambda: log.append(("label", 7, kernel.now)),
                       label="window")
    return handle


class TestTracedDrainEquivalence:
    def test_same_firing_order_and_clock_as_untraced(self):
        plain_log, traced_log = [], []
        plain = Kernel()
        _workload(plain, plain_log)
        plain.run_until(50)
        traced = Kernel(spans=SpanTracer())
        _workload(traced, traced_log)
        traced.run_until(50)
        assert traced_log == plain_log
        assert traced.now == plain.now
        assert traced.events_fired == plain.events_fired

    def test_labelled_events_become_kernel_spans(self):
        tracer = SpanTracer()
        kernel = Kernel(spans=tracer)
        _workload(kernel, [])
        kernel.run_until(50)
        assert [(s.name, s.start_tick) for s in tracer.spans] == [
            ("window", 4),
            ("window", 7),
        ]
        # Event dispatch is instantaneous in sim time.
        assert all(span.end_tick == span.start_tick for span in tracer.spans)

    def test_spans_opened_in_callbacks_nest_under_the_dispatch(self):
        tracer = SpanTracer()
        kernel = Kernel(spans=tracer)

        def fire():
            tracer.instant("core.query", "core", kernel.now, ok=True)

        kernel.schedule_at(3, fire, label="serve")
        kernel.run_until(10)
        dispatch, child = tracer.spans
        assert dispatch.name == "serve"
        assert child.parent_id == dispatch.span_id

    def test_step_wraps_labelled_events_too(self):
        tracer = SpanTracer()
        kernel = Kernel(spans=tracer)
        kernel.schedule_at(2, lambda: None, label="stepped")
        assert kernel.step() is True
        assert [span.name for span in tracer.spans] == ["stepped"]

    def test_traced_metrics_match_untraced(self):
        def counters(spans):
            kernel = Kernel(spans=spans)
            _workload(kernel, [])
            kernel.run_until(50)
            return kernel.events_fired, kernel.pending_events

        assert counters(None) == counters(SpanTracer()) == (5, 0)


class TestMetricsExactness:
    COUNT = 5000

    def test_exact_at_run_until_boundary(self):
        kernel = Kernel()
        for tick in range(self.COUNT):
            kernel.post_at(tick, lambda: None)
        kernel.run_until(self.COUNT)
        assert kernel.events_fired == self.COUNT
        assert kernel.pending_events == 0

    def test_exact_at_partial_run_boundary(self):
        kernel = Kernel()
        for tick in range(self.COUNT):
            kernel.post_at(tick, lambda: None)
        half = self.COUNT // 2
        kernel.run_until(half)
        assert kernel.events_fired == half + 1  # ticks 0..half fire
        assert kernel.pending_events == self.COUNT - half - 1
        kernel.run_until(self.COUNT)
        assert kernel.events_fired == self.COUNT

    def test_exact_under_tracing_too(self):
        kernel = Kernel(spans=SpanTracer())
        for tick in range(self.COUNT):
            kernel.post_at(tick, lambda: None)
        kernel.run_until(self.COUNT)
        assert kernel.events_fired == self.COUNT

    def test_step_keeps_the_counter_exact(self):
        kernel = Kernel()
        for tick in range(5):
            kernel.post_at(tick, lambda: None)
        fired = 0
        while kernel.step():
            fired += 1
            assert kernel.events_fired == fired
        assert fired == 5
