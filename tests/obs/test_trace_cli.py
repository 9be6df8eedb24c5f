"""End-to-end tests for ``bips trace``: exit codes, files, output shape."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.usefixtures("sandbox")


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _small_e2e(*extra):
    return ["trace", "--users", "2", "--duration", "60.0", *extra]


class TestChromeExport:
    def test_e2e_chrome_trace_validates(self, sandbox, capsys):
        assert main(_small_e2e("--format", "chrome")) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "results/trace/trace-e2e.json" in out
        document = json.loads((sandbox / "results/trace/trace-e2e.json").read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] > 0 and event["ts"] >= 0
            elif event["ph"] == "i":
                assert event["s"] == "t"

    def test_e2e_reports_all_four_layers(self, sandbox, capsys):
        assert main(_small_e2e()) == 0
        assert "layers: kernel, bluetooth, lan, core" in capsys.readouterr().out

    def test_table1_gets_one_process_per_trial(self, sandbox, capsys):
        assert main(
            ["trace", "--experiment", "table1", "--trials", "3",
             "--out", "t1.json"]
        ) == 0
        document = json.loads((sandbox / "t1.json").read_text())
        pids = {
            event["pid"]
            for event in document["traceEvents"]
            if event["ph"] != "M"
        }
        assert pids == {0, 1, 2}


class TestJsonlExport:
    def test_jsonl_records_parse_and_carry_causality(self, sandbox):
        assert main(_small_e2e("--format", "jsonl", "--out", "spans.jsonl")) == 0
        lines = (sandbox / "spans.jsonl").read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"name", "cat", "trace", "span", "parent", "start", "end"} <= set(
            records[0]
        )
        assert {record["cat"] for record in records} == {
            "kernel",
            "bluetooth",
            "lan",
            "core",
        }

    def test_jsonl_is_byte_deterministic(self, sandbox):
        main(_small_e2e("--format", "jsonl", "--out", "a.jsonl"))
        main(_small_e2e("--format", "jsonl", "--out", "b.jsonl"))
        assert (sandbox / "a.jsonl").read_bytes() == (sandbox / "b.jsonl").read_bytes()


class TestSampling:
    def test_zero_sample_writes_an_empty_trace(self, sandbox, capsys):
        assert main(_small_e2e("--sample", "0.0", "--format", "jsonl")) == 0
        out = capsys.readouterr().out
        assert "wrote 0 spans" in out
        assert "layers: none" in out

    def test_out_of_range_sample_is_usage_error(self, sandbox, capsys):
        assert main(_small_e2e("--sample", "1.5")) == 2
        assert "--sample out of range" in capsys.readouterr().err


class TestFlightRecorder:
    def test_armed_run_without_faults_reports_no_dump(self, sandbox, capsys):
        assert main(_small_e2e("--flight-recorder")) == 0
        out = capsys.readouterr().out
        assert "no fault fired, no dump written" in out
        assert not list((sandbox / "results/trace").glob("flight-*.json"))

    def test_fault_windows_dump_the_ring(self, sandbox, capsys):
        assert main(
            ["trace", "--users", "4", "--duration", "120.0",
             "--faults", "flaky-workstations", "--flight-recorder"]
        ) == 0
        out = capsys.readouterr().out
        assert "flight recorder dumped:" in out
        dumps = sorted((sandbox / "results/trace").glob("flight-*.json"))
        assert dumps
        for dump in dumps:
            records = json.loads(dump.read_text())["records"]
            # Each dump ends in the fault instant that triggered it ...
            assert records[-1]["name"] == "core.workstation_failed"
            assert set(records[-1]["attrs"]) == {"ws", "room"}
            # ... after the spans leading up to the fault.
            assert len(records) > 1
