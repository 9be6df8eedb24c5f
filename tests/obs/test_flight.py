"""Unit tests for the flight recorder: ring, triggers, dump files."""

from __future__ import annotations

import json

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.tracing import SpanTracer


class TestRing:
    def test_ring_keeps_only_the_last_n(self):
        recorder = FlightRecorder(capacity=3, out_dir="unused")
        for index in range(10):
            recorder.note({"span": index})
        assert recorder.noted == 10
        assert len(recorder) == 3
        assert [r["span"] for r in recorder.snapshot()] == [7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDumps:
    def test_trigger_writes_numbered_dump(self, tmp_path):
        recorder = FlightRecorder(capacity=4, out_dir=str(tmp_path))
        recorder.note({"span": 1})
        first = recorder.trigger("manual check")
        second = recorder.trigger("manual check")
        assert recorder.dumps == [first, second]
        assert first.endswith("flight-0001-manual-check.json")
        assert second.endswith("flight-0002-manual-check.json")
        document = json.loads((tmp_path / "flight-0001-manual-check.json").read_text())
        assert document["reason"] == "manual check"
        assert document["capacity"] == 4
        assert document["records_seen"] == 1
        assert document["records"] == [{"span": 1}]

    def test_arm_dumps_on_fault_event_with_trigger_last(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.arm("core.workstation_failed", "core.server_brownout")
        spans = SpanTracer(recorder=recorder)
        kernel = spans.begin("fault:brownout", "kernel", 77)
        prev = spans.push(kernel)
        spans.instant("lan.drop", "lan", 77)
        spans.instant("core.server_brownout", "core", 77, active=True)
        (path,) = recorder.dumps
        spans.end(kernel, 77)
        spans.pop(prev)
        assert path.endswith("flight-0001-core-server_brownout.json")
        records = json.loads(open(path).read())["records"]
        assert [r["name"] for r in records] == ["lan.drop", "core.server_brownout"]
        assert records[-1]["attrs"] == {"active": True}
        assert records[-1]["parent"] == kernel.span_id
        # The enclosing kernel span ends after the dump: it is in the
        # ring for the next dump, not in this one.
        assert recorder.snapshot()[-1]["name"] == "fault:brownout"

    def test_arm_ignores_other_event_types(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.arm("core.workstation_failed")
        spans = SpanTracer(recorder=recorder)
        spans.instant("core.server_brownout", "core", 1, active=True)
        spans.instant("core.workstation_recovered", "core", 2, ws="ws:a", room="a")
        assert recorder.dumps == []
        assert recorder.noted == 2

    def test_every_armed_record_dumps(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.arm("core.server_brownout")
        recorder.note({"name": "core.server_brownout", "attrs": {"active": True}})
        recorder.note({"name": "core.server_brownout", "attrs": {"active": False}})
        assert len(recorder.dumps) == 2
        last = json.loads(open(recorder.dumps[-1]).read())["records"]
        assert [r["attrs"]["active"] for r in last] == [True, False]
