"""Unit tests for the bench timing harness."""

from __future__ import annotations

import gc

import pytest

from repro.bench.harness import (
    PAIRS,
    median,
    percentile,
    run_pairs,
    run_suite,
    summarise,
    time_workload,
)

#: A stand-in tree for ``run_suite``: its ``time_workload`` reports a
#: fixed 0.25 s, and its one case's workload returns how many times
#: the factory has been called.
FAKE_HARNESS = """\
def time_workload(workload):
    return 0.25, workload()
"""
FAKE_SUITE = """\
from types import SimpleNamespace

builds = []


def factory():
    builds.append(1)
    built = len(builds)
    return lambda: built


SUITE = (SimpleNamespace(name="fresh", unit="ops", factory=factory),)
"""


@pytest.fixture
def fake_tree(tmp_path):
    bench = tmp_path / "src" / "repro" / "bench"
    bench.mkdir(parents=True)
    (bench.parent / "__init__.py").write_text("")
    (bench / "__init__.py").write_text("")
    (bench / "harness.py").write_text(FAKE_HARNESS)
    (bench / "suite.py").write_text(FAKE_SUITE)
    return tmp_path / "src"


class TestStatistics:
    def test_median_odd(self):
        assert median([1.0, 2.0, 9.0]) == 2.0

    def test_median_even_interpolates(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0.9) == 9.0
        assert percentile(samples, 1.0) == 10.0
        assert percentile(samples, 0.0) == 1.0

    def test_percentile_single_sample(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestTimeWorkload:
    def test_returns_elapsed_and_units(self):
        elapsed, units = time_workload(lambda: 42)
        assert units == 42
        assert elapsed >= 0.0

    def test_gc_restored_after_timing(self):
        assert gc.isenabled()
        time_workload(lambda: 1)
        assert gc.isenabled()

    def test_gc_restored_even_when_workload_raises(self):
        def boom() -> int:
            raise RuntimeError("workload failed")

        with pytest.raises(RuntimeError):
            time_workload(boom)
        assert gc.isenabled()


class TestMeasureCase:
    """``run_suite`` times the tree it is given, in a fresh interpreter."""

    def test_basic_measurement(self, fake_tree):
        result = run_suite(fake_tree, 3)["fresh"]
        assert (result.name, result.unit, result.repeats) == ("fresh", "ops", 3)
        # The stand-in tree's clock, not this process's code, timed it.
        assert result.samples_s == [0.25, 0.25, 0.25]
        assert result.median_s == result.p90_s == 0.25
        assert result.rate_per_s == result.units / 0.25

    def test_nonpositive_repeats_raise(self, fake_tree):
        with pytest.raises(ValueError):
            run_suite(fake_tree, 0)

    def test_fresh_workload_per_repeat(self, fake_tree):
        assert run_suite(fake_tree, 4)["fresh"].units == 4

    def test_failed_side_raises(self, fake_tree):
        (fake_tree / "repro" / "bench" / "suite.py").write_text("SUITE = None\n")
        with pytest.raises(RuntimeError, match="failed"):
            run_suite(fake_tree, 1)


class TestInjectedTimer:
    def test_time_workload_reads_the_timer(self, ticking_timer):
        elapsed, units = time_workload(lambda: 7, ticking_timer)
        assert (elapsed, units) == (0.25, 7)


class TestRunPairs:
    def test_pairs_alternate_which_side_runs_first(self, tmp_path):
        head, parent = tmp_path / "head", tmp_path / "parent"
        calls = []

        def side(src, repeats):
            calls.append(src)
            return {"case": summarise("case", "ops", 1, [1.0] * repeats)}

        steps: list[str] = []
        pairs = run_pairs(head, parent, 2, side, steps.append)
        assert len(pairs) == PAIRS >= 10
        assert calls == [head, parent, parent, head] * (PAIRS // 2)
        assert [pair.head_first for pair in pairs] == [True, False] * (PAIRS // 2)
        assert steps[:3] == [f"pair 1/{PAIRS}: head", f"pair 1/{PAIRS}: parent", f"pair 2/{PAIRS}: parent"]
        assert all(pair.head["case"].repeats == 2 for pair in pairs)
