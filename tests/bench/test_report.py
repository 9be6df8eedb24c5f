"""Unit tests for bench report assembly and baseline comparison."""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchCase, CaseResult
from repro.bench.report import (
    SCHEMA_VERSION,
    build_report,
    case_digest,
    compare_to_baseline,
    git_revision,
    has_regression,
    load_json,
    render_text,
    write_json,
)


def _case(name: str, params=()) -> BenchCase:
    return BenchCase(name=name, factory=lambda: (lambda: 1), unit="ops", params=params)


def _result(name: str, normalized: float = 1.0) -> CaseResult:
    return CaseResult(
        name=name,
        unit="ops",
        units=100,
        repeats=3,
        median_s=0.01,
        p90_s=0.02,
        rate_per_s=normalized * 1000.0,
        normalized=normalized,
        samples_s=[0.01, 0.01, 0.02],
    )


def _report(scores: dict) -> dict:
    cases = [_case(name) for name in scores]
    results = [_result(name, score) for name, score in scores.items()]
    return build_report(
        results, cases, calibration_rate=1000.0, repeats=3, git_rev="abc1234"
    )


class TestDigest:
    def test_stable_for_identical_cases(self):
        assert case_digest(_case("a", (("n", 5),))) == case_digest(
            _case("a", (("n", 5),))
        )

    def test_changes_with_params(self):
        assert case_digest(_case("a", (("n", 5),))) != case_digest(
            _case("a", (("n", 6),))
        )

    def test_changes_with_name(self):
        assert case_digest(_case("a")) != case_digest(_case("b"))


class TestBuildReport:
    def test_document_shape(self):
        report = _report({"alpha": 1.0})
        assert report["schema"] == SCHEMA_VERSION
        assert report["git_rev"] == "abc1234"
        assert report["calibration_rate_per_s"] == 1000.0
        alpha = report["benchmarks"]["alpha"]
        assert alpha["normalized"] == 1.0
        assert alpha["config_digest"]

    def test_roundtrip_through_json(self, tmp_path):
        report = _report({"alpha": 1.0})
        path = tmp_path / "bench.json"
        write_json(path, report)
        assert load_json(path) == report

    def test_load_rejects_non_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_json(path)


class TestCompare:
    def test_ok_within_threshold(self):
        comparisons = compare_to_baseline(_report({"a": 0.9}), _report({"a": 1.0}))
        assert [c.status for c in comparisons] == ["ok"]
        assert not has_regression(comparisons)

    def test_regression_beyond_threshold(self):
        comparisons = compare_to_baseline(_report({"a": 0.7}), _report({"a": 1.0}))
        assert [c.status for c in comparisons] == ["regression"]
        assert has_regression(comparisons)
        assert comparisons[0].ratio == pytest.approx(0.7)

    def test_improvement_beyond_threshold(self):
        comparisons = compare_to_baseline(_report({"a": 1.5}), _report({"a": 1.0}))
        assert [c.status for c in comparisons] == ["improved"]

    def test_case_missing_from_baseline_is_new(self):
        comparisons = compare_to_baseline(_report({"a": 1.0}), _report({}))
        assert [c.status for c in comparisons] == ["new"]

    def test_digest_mismatch_is_incomparable(self):
        report = _report({"a": 0.1})  # would be a huge "regression"...
        baseline = _report({"a": 1.0})
        baseline["benchmarks"]["a"]["config_digest"] = "different!"
        comparisons = compare_to_baseline(report, baseline)
        # ...but the workload changed, so the verdict is incomparable.
        assert [c.status for c in comparisons] == ["incomparable"]
        assert not has_regression(comparisons)

    def test_threshold_is_validated(self):
        with pytest.raises(ValueError):
            compare_to_baseline(_report({}), _report({}), threshold=1.5)

    def test_threshold_controls_the_gate(self):
        report, baseline = _report({"a": 0.85}), _report({"a": 1.0})
        loose = compare_to_baseline(report, baseline, threshold=0.20)
        tight = compare_to_baseline(report, baseline, threshold=0.10)
        assert [c.status for c in loose] == ["ok"]
        assert [c.status for c in tight] == ["regression"]


class TestRendering:
    def test_render_includes_cases_and_verdicts(self):
        report = _report({"alpha": 1.0, "beta": 1.0})
        comparisons = compare_to_baseline(report, _report({"alpha": 1.0}))
        text = render_text(report, comparisons)
        assert "alpha" in text
        assert "[ok" in text
        assert "[new]" in text
        assert text.endswith("\n")

    def test_git_revision_in_repo(self):
        assert git_revision() != ""
