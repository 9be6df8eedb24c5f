"""Exit-code and artefact tests for ``bips bench``.

``run_bench`` takes its side runner as a callable: these tests feed it
synthetic per-pair timings, so no verdict here depends on how fast or
busy the host is, and the parent's checkout is faked unless a test is
about the revision itself.  Real timing is exercised by ``bips bench``
itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess

import pytest

import repro.bench.cli as bench_cli
from repro.bench.harness import PAIRS, summarise

PARENT_COMMIT = "f" * 40


def _args(tmp_path, **overrides) -> argparse.Namespace:
    defaults = dict(repeats=2, threshold=0.20, against=None, out_dir=str(tmp_path))
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def _side(head_s, parent_s=1.0, calls=None):
    """A side runner timing one ``tiny`` case at ``head_s(pair)`` seconds
    in the working tree and ``parent_s`` in any other tree."""
    pair = [0]

    def side(src, repeats):
        is_head = src == bench_cli.HEAD_SRC
        if calls is not None:
            calls.append("head" if is_head else "parent")
        seconds = head_s(pair[0] // 2) if is_head else parent_s
        pair[0] += 1
        return {"tiny": summarise("tiny", "ops", 100, [seconds] * repeats)}

    return side


@pytest.fixture
def fake_checkout(monkeypatch):
    checked_out = []

    def checkout(rev, dest):
        checked_out.append(rev)
        return PARENT_COMMIT

    monkeypatch.setattr(bench_cli, "checkout_src", checkout)
    return checked_out


def _report(tmp_path) -> dict:
    (path,) = tmp_path.glob("BENCH_*.json")
    return json.loads(path.read_text())


class TestExitCodes:
    def test_no_baseline_is_clean(self, tmp_path, capsys):
        # Without --against the head is timed alone and nothing is judged.
        calls: list[str] = []
        assert bench_cli.run_bench(_args(tmp_path), _side(lambda _: 9.0, calls=calls)) == 0
        assert calls == ["head"]
        assert "head only" in capsys.readouterr().out

    def test_matching_run_passes_the_gate(self, tmp_path, fake_checkout):
        args = _args(tmp_path, against="HEAD~1")
        assert bench_cli.run_bench(args, _side(lambda _: 1.0)) == 0
        assert fake_checkout == ["HEAD~1"]
        assert _report(tmp_path)["benchmarks"]["tiny"]["ratio"] == 1.0

    def test_ratio_below_the_threshold_passes(self, tmp_path, fake_checkout):
        args = _args(tmp_path, against="HEAD~1")
        assert bench_cli.run_bench(args, _side(lambda _: 1.15)) == 0

    def test_regression_exits_one(self, tmp_path, fake_checkout, capsys):
        args = _args(tmp_path, against="HEAD~1")
        assert bench_cli.run_bench(args, _side(lambda _: 1.25)) == 1
        assert "REGRESSION — tiny at 1.250x" in capsys.readouterr().err

    def test_median_pair_decides(self, tmp_path, fake_checkout):
        # Three slow pairs of ten leave the median pair at 1.0.
        args = _args(tmp_path, against="HEAD~1", threshold=0.03)
        assert bench_cli.run_bench(args, _side(lambda pair: 2.0 if pair < 3 else 1.0)) == 0

    def test_sides_alternate_which_runs_first(self, tmp_path, fake_checkout):
        calls: list[str] = []
        args = _args(tmp_path, against="HEAD~1")
        assert bench_cli.run_bench(args, _side(lambda _: 1.0, calls=calls)) == 0
        assert calls == ["head", "parent", "parent", "head"] * (PAIRS // 2)
        pairs = _report(tmp_path)["benchmarks"]["tiny"]["pairs"]
        assert [pair["head_first"] for pair in pairs] == [True, False] * (PAIRS // 2)

    def test_unknown_revision_is_usage_error(self, tmp_path):
        calls: list[str] = []
        args = _args(tmp_path, against="no-such-revision-anywhere")
        assert bench_cli.run_bench(args, _side(lambda _: 1.0, calls=calls)) == 2
        assert calls == []
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_failed_side_is_usage_error(self, tmp_path, fake_checkout):
        def side(src, repeats):
            raise RuntimeError("timing failed")

        assert bench_cli.run_bench(_args(tmp_path, against="HEAD~1"), side) == 2

    def test_bad_repeats_is_usage_error(self, tmp_path):
        assert bench_cli.run_bench(_args(tmp_path, repeats=0)) == 2

    def test_bad_threshold_is_usage_error(self, tmp_path):
        assert bench_cli.run_bench(_args(tmp_path, threshold=1.5)) == 2

    def test_bench_json_written_even_without_baseline(self, tmp_path):
        bench_cli.run_bench(_args(tmp_path), _side(lambda _: 0.5))
        document = _report(tmp_path)
        assert document["benchmarks"]["tiny"]["units"] == 100
        assert document["against"] is None

    def test_report_records_every_pair(self, tmp_path, fake_checkout):
        args = _args(tmp_path, against="HEAD~1")
        bench_cli.run_bench(args, _side(lambda pair: 1.0 + pair / 100))
        document = _report(tmp_path)
        assert (document["against"], document["pairs"]) == (PARENT_COMMIT, PAIRS)
        tiny = document["benchmarks"]["tiny"]
        assert [pair["head_s"] for pair in tiny["pairs"]] == [
            1.0 + pair / 100 for pair in range(PAIRS)
        ]
        assert all(pair["parent_s"] == 1.0 for pair in tiny["pairs"])
        # The median of parent/head over the ten pairs.
        assert tiny["normalized"] == pytest.approx((1 / 1.04 + 1 / 1.05) / 2)


class TestMainWiring:
    def test_default_out_dir_is_results_bench(self):
        # The repo root stays clean: artefacts default under results/.
        assert bench_cli.DEFAULT_OUT_DIR == "results/bench"
        parser = argparse.ArgumentParser()
        bench_cli.add_bench_parser(parser.add_subparsers(dest="command"))
        args = parser.parse_args(["bench"])
        assert args.out_dir == "results/bench"
        assert args.against is None

    def test_bench_subcommand_reachable_from_bips(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--repeats", "1", "--out-dir", str(tmp_path)]) == 0
        assert set(_report(tmp_path)["benchmarks"]) == {
            "kernel_events",
            "swarm_piconet_100",
            "swarm_handover",
            "location_reads",
        }



class TestCheckout:
    def test_checkout_extracts_the_revision_src(self, tmp_path):
        # Needs the git repository this tree was checked out from.
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=bench_cli.HEAD_SRC.parent,
                capture_output=True,
                check=False,
            )
        except OSError:
            pytest.skip("git is not installed")
        if probe.returncode != 0:
            pytest.skip("not a git checkout")
        commit = bench_cli.checkout_src("HEAD", tmp_path)
        assert commit == probe.stdout.decode().strip()
        assert (tmp_path / "src" / "repro" / "bench" / "suite.py").is_file()
