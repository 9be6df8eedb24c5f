"""Unit tests for bench report assembly and the paired verdict."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import Pair, summarise
from repro.bench.report import (
    SCHEMA_VERSION,
    build_report,
    compare,
    git_revision,
    has_regression,
    render_text,
    write_json,
)

PARENT_COMMIT = "f" * 40


def _side(seconds: dict) -> dict:
    return {name: summarise(name, "ops", 100, [value]) for name, value in seconds.items()}


def _report(ratios: dict, parent_cases=None) -> dict:
    """A paired report whose pair ``i`` times each case at ``ratios[case][i]``
    seconds in the head and 1 s in the parent."""
    count = len(next(iter(ratios.values())))
    pairs = [
        Pair(
            _side({name: values[index] for name, values in ratios.items()}),
            _side({name: 1.0 for name in parent_cases or ratios}),
            index % 2 == 0,
        )
        for index in range(count)
    ]
    return build_report(pairs, repeats=1, git_rev="abc1234", against=PARENT_COMMIT)


class TestBuildReport:
    def test_document_shape(self):
        report = _report({"alpha": [1.0, 2.0, 4.0]})
        assert report["schema"] == SCHEMA_VERSION == 2
        assert report["git_rev"] == "abc1234"
        assert report["against"] == PARENT_COMMIT
        assert (report["pairs"], report["repeats"]) == (3, 1)
        assert "calibration_rate_per_s" not in report
        alpha = report["benchmarks"]["alpha"]
        assert alpha["pairs"] == [
            {"head_s": 1.0, "parent_s": 1.0, "ratio": 1.0, "head_first": True},
            {"head_s": 2.0, "parent_s": 1.0, "ratio": 2.0, "head_first": False},
            {"head_s": 4.0, "parent_s": 1.0, "ratio": 4.0, "head_first": True},
        ]
        # The median pair: head/parent for the verdict, parent/head as
        # the normalized score.
        assert alpha["ratio"] == 2.0
        assert alpha["normalized"] == 0.5
        # The head's own timing pools its repeats over every pair.
        assert alpha["samples_s"] == [1.0, 2.0, 4.0]
        assert (alpha["median_s"], alpha["units"], alpha["unit"]) == (2.0, 100, "ops")

    def test_head_alone_has_no_verdict(self):
        report = build_report(
            [Pair(_side({"alpha": 0.5}), None, True)],
            repeats=1,
            git_rev="abc1234",
            against=None,
        )
        alpha = report["benchmarks"]["alpha"]
        assert (report["against"], report["pairs"]) == (None, 0)
        assert (alpha["pairs"], alpha["ratio"], alpha["normalized"]) == ([], None, None)
        assert compare(report) == []

    def test_roundtrip_through_json(self, tmp_path):
        report = _report({"alpha": [1.0]})
        path = tmp_path / "bench.json"
        write_json(path, report)
        assert json.loads(path.read_text()) == report


class TestCompare:
    def test_ok_within_threshold(self):
        comparisons = compare(_report({"a": [1.1]}))
        assert [c.status for c in comparisons] == ["ok"]
        assert not has_regression(comparisons)

    def test_regression_beyond_threshold(self):
        comparisons = compare(_report({"a": [1.3]}))
        assert [c.status for c in comparisons] == ["regression"]
        assert has_regression(comparisons)
        assert comparisons[0].ratio == pytest.approx(1.3)

    def test_improvement_beyond_threshold(self):
        comparisons = compare(_report({"a": [0.7]}))
        assert [c.status for c in comparisons] == ["improved"]

    def test_verdict_reads_the_median_pair(self):
        # Two noisy pairs cannot fail a case the other eight clear...
        noisy = [1.0] * 8 + [3.0] * 2
        assert [c.status for c in compare(_report({"a": noisy}))] == ["ok"]
        # ...and a slowdown in most pairs fails it.
        slower = [1.0] * 4 + [1.5] * 6
        assert [c.status for c in compare(_report({"a": slower}))] == ["regression"]

    def test_case_the_parent_lacks_is_not_judged(self):
        report = _report({"a": [1.0], "b": [9.0]}, parent_cases=["a"])
        assert report["benchmarks"]["b"]["ratio"] is None
        assert [c.name for c in compare(report)] == ["a"]

    def test_threshold_is_validated(self):
        with pytest.raises(ValueError):
            compare(_report({"a": [1.0]}), threshold=1.5)

    def test_threshold_controls_the_gate(self):
        report = _report({"a": [1.15]})
        loose = compare(report, threshold=0.20)
        tight = compare(report, threshold=0.10)
        assert [c.status for c in loose] == ["ok"]
        assert [c.status for c in tight] == ["regression"]


class TestRendering:
    def test_render_includes_cases_and_verdicts(self):
        report = _report({"alpha": [1.0], "beta": [1.5]})
        text = render_text(report, compare(report))
        assert "alpha" in text and "beta" in text
        assert "[ok]" in text
        assert "[regression]" in text
        assert f"against {PARENT_COMMIT} in 1 pairs" in text
        assert text.endswith("\n")

    def test_git_revision_in_repo(self):
        assert git_revision() != ""
