"""Unit tests for the span tracer: lifecycle, sampling, context, export."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracing import (
    CATEGORY_TIDS,
    TICK_MICROSECONDS,
    UNSAMPLED,
    SpanTracer,
    chrome_trace,
    merge_worker_spans,
    write_chrome_trace,
    write_spans_jsonl,
)


class TestSpanLifecycle:
    def test_begin_end_records_interval(self):
        tracer = SpanTracer()
        span = tracer.begin("bt.window", "bluetooth", 100, parent=None, ws="ws:a")
        tracer.end(span, 250)
        assert span.end_tick - span.start_tick == 150
        record = span.to_record()
        assert record["name"] == "bt.window"
        assert record["cat"] == "bluetooth"
        assert (record["start"], record["end"]) == (100, 250)
        assert record["attrs"] == {"ws": "ws:a"}

    def test_open_span_exports_end_equal_to_start(self):
        tracer = SpanTracer()
        span = tracer.begin("bt.window", "bluetooth", 7, parent=None)
        record = span.to_record()
        assert record["end"] == record["start"] == 7
        assert span.end_tick is None

    def test_attrless_record_has_no_attrs_key(self):
        tracer = SpanTracer()
        span = tracer.instant("core.query", "core", 3, parent=None)
        assert "attrs" not in span.to_record()

    def test_record_copies_attrs(self):
        tracer = SpanTracer()
        span = tracer.begin("lan.transit", "lan", 1, parent=None, outcome="?")
        record = span.to_record()
        span.attrs["outcome"] = "delivered"
        assert record["attrs"]["outcome"] == "?"

    def test_instant_is_zero_duration(self):
        tracer = SpanTracer()
        span = tracer.instant("core.query", "core", 42, parent=None, ok=True)
        assert span.end_tick == span.start_tick == 42

    def test_end_none_is_noop(self):
        SpanTracer().end(None, 5)  # sampled-out spans flow through end()


class TestCausality:
    def test_ambient_parenting(self):
        tracer = SpanTracer()
        root = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        prev = tracer.push(root)
        child = tracer.begin("lan.transit", "lan", 1)
        tracer.pop(prev)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_explicit_none_forces_new_root(self):
        tracer = SpanTracer()
        root = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        prev = tracer.push(root)
        other = tracer.begin("bt.window", "bluetooth", 1, parent=None)
        tracer.pop(prev)
        assert other.parent_id == 0
        assert other.trace_id != root.trace_id

    def test_captured_context_parents_later_hop(self):
        # The LAN pattern: capture at send time, re-apply at the retry.
        tracer = SpanTracer()
        root = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        prev = tracer.push(root)
        ctx = tracer.capture()
        tracer.pop(prev)
        assert tracer.capture() is None  # ambient is gone...
        late = tracer.begin("lan.transit", "lan", 9, parent=ctx)
        assert late.parent_id == root.span_id  # ...but the hop still chains

    def test_push_pop_restores_previous_context(self):
        tracer = SpanTracer()
        a = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        b = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        prev_a = tracer.push(a)
        prev_b = tracer.push(b)
        assert tracer.capture() is b
        tracer.pop(prev_b)
        assert tracer.capture() is a
        tracer.pop(prev_a)
        assert tracer.capture() is None

    def test_scope_restores_on_exception(self):
        tracer = SpanTracer()
        span = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        # The callers' pattern: pop in a ``finally`` around the work.
        with pytest.raises(RuntimeError):
            prev = tracer.push(span)
            try:
                raise RuntimeError("boom")
            finally:
                tracer.pop(prev)
        assert tracer.capture() is None


class TestSampling:
    def test_full_sampling_keeps_everything(self):
        tracer = SpanTracer(sample=1.0)
        assert all(
            tracer.begin("bt.window", "bluetooth", t, parent=None) is not None
            for t in range(50)
        )

    def test_zero_sampling_drops_every_root(self):
        tracer = SpanTracer(sample=0.0)
        assert all(
            tracer.begin("bt.window", "bluetooth", t, parent=None) is None
            for t in range(50)
        )
        assert len(tracer) == 0

    def test_sampling_is_deterministic_in_the_seed(self):
        def decisions(seed):
            tracer = SpanTracer(seed=seed, sample=0.5)
            return [
                tracer.begin("bt.window", "bluetooth", t, parent=None) is not None
                for t in range(200)
            ]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)  # distinct streams
        kept = sum(decisions(7))
        assert 50 < kept < 150  # the rate is actually ~0.5

    def test_pushing_unsampled_root_suppresses_descendants(self):
        tracer = SpanTracer(sample=0.0)
        root = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        assert root is None
        prev = tracer.push(root)
        assert tracer.capture() is UNSAMPLED
        child = tracer.begin("lan.transit", "lan", 1)
        assert child is None  # no orphaned children
        tracer.pop(prev)
        assert len(tracer) == 0

    def test_captured_unsampled_context_suppresses_later_hop(self):
        tracer = SpanTracer(sample=0.0)
        prev = tracer.push(tracer.begin("bt.window", "bluetooth", 0, parent=None))
        ctx = tracer.capture()
        tracer.pop(prev)
        assert tracer.begin("lan.transit", "lan", 5, parent=ctx) is None

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(sample=1.5)
        with pytest.raises(ValueError):
            SpanTracer(sample=-0.1)

    def test_max_spans_cap_counts_drops(self):
        tracer = SpanTracer(max_spans=3)
        for t in range(5):
            tracer.begin("bt.window", "bluetooth", t, parent=None)
        assert len(tracer) == 3
        assert tracer.dropped == 2


class TestRecorderHook:
    def test_end_feeds_the_recorder(self):
        class Ring:
            def __init__(self):
                self.records = []

            def note(self, record):
                self.records.append(record)

        ring = Ring()
        tracer = SpanTracer(recorder=ring)
        span = tracer.begin("lan.transit", "lan", 1, parent=None)
        assert ring.records == []  # only *finished* spans are noted
        tracer.end(span, 4)
        assert ring.records == [span.to_record()]


class TestMerge:
    def test_merge_tags_trial_index_as_pid(self):
        lists = [
            [{"name": "a", "cat": "kernel"}],
            [],
            [{"name": "b", "cat": "kernel"}, {"name": "c", "cat": "lan"}],
        ]
        merged = merge_worker_spans(lists)
        assert [(r["name"], r["pid"]) for r in merged] == [
            ("a", 0),
            ("b", 2),
            ("c", 2),
        ]
        assert "pid" not in lists[0][0]  # inputs are not mutated


class TestChromeExport:
    def _records(self):
        tracer = SpanTracer()
        window = tracer.begin("bt.window", "bluetooth", 0, parent=None, ws="ws:a")
        prev = tracer.push(window)
        tracer.instant("core.query", "core", 2, ok=True)
        tracer.pop(prev)
        tracer.end(window, 10)
        return tracer.records()

    def test_intervals_and_instants(self):
        document = chrome_trace(self._records())
        assert document["displayTimeUnit"] == "ms"
        by_name = {e["name"]: e for e in document["traceEvents"] if e["ph"] != "M"}
        window = by_name["bt.window"]
        assert window["ph"] == "X"
        assert window["dur"] == 10 * TICK_MICROSECONDS
        assert window["tid"] == CATEGORY_TIDS["bluetooth"]
        assert window["args"]["ws"] == "ws:a"
        query = by_name["core.query"]
        assert query["ph"] == "i"
        assert query["s"] == "t"
        assert query["ts"] == 2 * TICK_MICROSECONDS
        assert query["args"]["parent"] == window["args"]["span"]

    def test_lane_metadata(self):
        events = chrome_trace(self._records(), process_name="bips")["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        names = {
            (e["name"], e["tid"]): e["args"]["name"] for e in metadata
        }
        assert names[("process_name", 0)] == "bips"
        assert names[("thread_name", CATEGORY_TIDS["bluetooth"])] == "bluetooth"
        assert names[("thread_name", CATEGORY_TIDS["core"])] == "core"

    def test_merged_trials_get_one_process_each(self):
        merged = merge_worker_spans([self._records(), self._records()])
        events = chrome_trace(merged, process_name="bips table1")["traceEvents"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {0: "bips table1 trial 0", 1: "bips table1 trial 1"}

    def test_unknown_category_gets_overflow_lane(self):
        document = chrome_trace([
            {"name": "x", "cat": "misc", "trace": 1, "span": 1, "parent": 0,
             "start": 0, "end": 1}
        ])
        event = next(e for e in document["traceEvents"] if e["ph"] != "M")
        assert event["tid"] == 9


class TestWriters:
    def test_chrome_writer_is_loadable_and_deterministic(self, tmp_path):
        tracer = SpanTracer()
        tracer.end(tracer.begin("bt.window", "bluetooth", 0, parent=None), 5)
        records = tracer.records()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert write_chrome_trace(str(a), records) == 1
        write_chrome_trace(str(b), records)
        assert a.read_bytes() == b.read_bytes()
        document = json.loads(a.read_text())
        assert {e["ph"] for e in document["traceEvents"]} == {"M", "X"}

    def test_jsonl_writer_one_record_per_line(self, tmp_path):
        tracer = SpanTracer()
        tracer.end(tracer.begin("bt.window", "bluetooth", 0, parent=None), 5)
        tracer.instant("core.query", "core", 6, parent=None, ok=False)
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(str(path), tracer.records()) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "bt.window",
            "core.query",
        ]


class TestWallClock:
    def test_wall_annotation_is_opt_in(self):
        tracer = SpanTracer()
        span = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        tracer.end(span, 1)
        assert "wall_us" not in span.to_record()

    def test_wall_annotation_when_enabled(self):
        tracer = SpanTracer(wall=True)
        span = tracer.begin("bt.window", "bluetooth", 0, parent=None)
        tracer.end(span, 1)
        assert span.to_record()["wall_us"] >= 0.0
