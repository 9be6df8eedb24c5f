"""Unit tests for the bench timing harness."""

from __future__ import annotations

import gc

import pytest

from repro.bench.harness import (
    BenchCase,
    calibration_workload,
    CALIBRATION_ITERATIONS,
    measure_calibration,
    measure_case,
    median,
    percentile,
    run_suite,
    time_workload,
)


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

    def test_calibration_workload_unit_count(self):
        # The unit count is fixed modulo the low parity bit it keeps
        # alive; it must not drift with interpreter details.
        units = calibration_workload()
        assert units in (CALIBRATION_ITERATIONS, CALIBRATION_ITERATIONS + 1)


class TestMeasureCase:
    def test_basic_measurement(self):
        case = BenchCase(name="noop", factory=lambda: (lambda: 10), unit="ops")
        result = measure_case(case, repeats=3, calibration_rate=1000.0)
        assert result.units == 10
        assert result.repeats == 3
        assert len(result.samples_s) == 3
        assert result.samples_s == sorted(result.samples_s)
        assert result.rate_per_s > 0
        assert result.normalized == pytest.approx(result.rate_per_s / 1000.0)

    def test_nonpositive_repeats_raise(self):
        case = BenchCase(name="noop", factory=lambda: (lambda: 1), unit="ops")
        with pytest.raises(ValueError):
            measure_case(case, repeats=0, calibration_rate=1.0)

    def test_fresh_workload_per_repeat(self):
        builds = []

        def factory():
            builds.append(1)
            return lambda: 1

        case = BenchCase(name="fresh", factory=factory, unit="ops")
        measure_case(case, repeats=4, calibration_rate=1.0)
        assert len(builds) == 4


class TestInjectedTimer:
    def test_time_workload_reads_the_timer(self, ticking_timer):
        elapsed, units = time_workload(lambda: 7, ticking_timer)
        assert (elapsed, units) == (0.25, 7)

    def test_run_suite_threads_the_timer_everywhere(self, ticking_timer):
        cases = [BenchCase(name="one", factory=lambda: (lambda: 3), unit="ops")]
        results, calibration_rate = run_suite(cases, repeats=2, timer=ticking_timer)
        assert calibration_rate == calibration_workload() / 0.25
        assert results[0].samples_s == [0.25, 0.25]
        assert results[0].rate_per_s == 12.0
        assert results[0].normalized == 12.0 / calibration_rate


class TestRunSuite:
    def test_progress_called_per_case(self):
        cases = [
            BenchCase(name="one", factory=lambda: (lambda: 1), unit="ops"),
            BenchCase(name="two", factory=lambda: (lambda: 2), unit="ops"),
        ]
        seen: list[str] = []
        results, calibration_rate = run_suite(cases, repeats=1, progress=seen.append)
        assert seen == ["one", "two"]
        assert [r.name for r in results] == ["one", "two"]
        assert calibration_rate > 0

    def test_calibration_rate_positive(self):
        _, rate = measure_calibration(repeats=1)
        assert rate > 0
