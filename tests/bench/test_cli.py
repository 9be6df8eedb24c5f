"""Exit-code and artefact tests for ``bips bench``.

The real suite takes seconds per case, so these tests monkeypatch the
suite resolver to a microscopic stand-in — the contract under test is
the CLI's control flow, not the workloads.  The harness also runs on a
synthetic timer, so no verdict here depends on how fast or busy the
host is; real timing is exercised by ``bips bench`` itself.
"""

from __future__ import annotations

import argparse
import functools
import json

import pytest

import repro.bench.cli as bench_cli
from repro.bench.harness import BenchCase, BenchSkip, run_suite


def _tiny_suite(name: str) -> list[BenchCase]:
    return [
        BenchCase(name="tiny", factory=lambda: (lambda: 100), unit="ops"),
        BenchCase(
            name="absent",
            factory=_always_skip,
            unit="ops",
            smoke=False,
        ),
    ]


def _always_skip():
    raise BenchSkip("feature not built here")


def _args(tmp_path, **overrides) -> argparse.Namespace:
    defaults = dict(
        suite="full",
        repeats=2,
        threshold=0.20,
        baseline=str(tmp_path / "baseline.json"),
        out_dir=str(tmp_path),
        update_baseline=False,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


@pytest.fixture(autouse=True)
def tiny_suite(monkeypatch, tmp_path, ticking_timer):
    monkeypatch.setattr(bench_cli, "select_suite", _tiny_suite)
    monkeypatch.setattr(
        bench_cli, "run_suite", functools.partial(run_suite, timer=ticking_timer)
    )
    # Keep the baseline text rendering inside the sandbox too.
    monkeypatch.setattr(
        bench_cli, "DEFAULT_BASELINE_TEXT", str(tmp_path / "bench_baseline.txt")
    )


class TestExitCodes:
    def test_no_baseline_is_clean(self, tmp_path, capsys):
        assert bench_cli.run_bench(_args(tmp_path)) == 0
        assert "no baseline" in capsys.readouterr().err

    def test_update_baseline_writes_artifacts(self, tmp_path):
        args = _args(tmp_path, update_baseline=True)
        assert bench_cli.run_bench(args) == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        assert "tiny" in baseline["benchmarks"]
        assert baseline["benchmarks"]["absent"]["skipped"] is True
        assert (tmp_path / "bench_baseline.txt").exists()
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1

    def test_matching_run_passes_the_gate(self, tmp_path):
        assert bench_cli.run_bench(_args(tmp_path, update_baseline=True)) == 0
        assert bench_cli.run_bench(_args(tmp_path)) == 0
        # Synthetic timings make the two runs' scores identical.
        reports = [
            json.loads(path.read_text())["benchmarks"]["tiny"]["normalized"]
            for path in (tmp_path / "baseline.json", *tmp_path.glob("BENCH_*.json"))
        ]
        assert len(set(reports)) == 1

    def test_regression_exits_one(self, tmp_path, capsys):
        assert bench_cli.run_bench(_args(tmp_path, update_baseline=True)) == 0
        baseline_path = tmp_path / "baseline.json"
        baseline = json.loads(baseline_path.read_text())
        # Pretend the recorded machine-neutral score was far higher.
        baseline["benchmarks"]["tiny"]["normalized"] *= 100.0
        baseline_path.write_text(json.dumps(baseline))
        assert bench_cli.run_bench(_args(tmp_path)) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_digest_mismatch_does_not_fail_the_gate(self, tmp_path):
        assert bench_cli.run_bench(_args(tmp_path, update_baseline=True)) == 0
        baseline_path = tmp_path / "baseline.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["benchmarks"]["tiny"]["normalized"] *= 100.0
        baseline["benchmarks"]["tiny"]["config_digest"] = "stale-digest"
        baseline_path.write_text(json.dumps(baseline))
        assert bench_cli.run_bench(_args(tmp_path)) == 0

    def test_bad_repeats_is_usage_error(self, tmp_path):
        assert bench_cli.run_bench(_args(tmp_path, repeats=0)) == 2

    def test_bench_json_written_even_without_baseline(self, tmp_path):
        bench_cli.run_bench(_args(tmp_path))
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        document = json.loads(bench_files[0].read_text())
        assert document["benchmarks"]["tiny"]["units"] == 100


class TestMainWiring:
    def test_default_out_dir_is_results_bench(self):
        # The repo root stays clean: artefacts default under results/.
        assert bench_cli.DEFAULT_OUT_DIR == "results/bench"
        parser = argparse.ArgumentParser()
        bench_cli.add_bench_parser(parser.add_subparsers(dest="command"))
        args = parser.parse_args(["bench"])
        assert args.out_dir == "results/bench"

    def test_bench_subcommand_reachable_from_bips(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench",
                "--suite",
                "smoke",
                "--repeats",
                "1",
                "--baseline",
                str(tmp_path / "baseline.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
