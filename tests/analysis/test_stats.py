"""Tests for statistics helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stats import (
    EmpiricalCDF,
    proportion_ci95,
    relative_error,
    summarize,
)


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert math.isclose(summary.std, 1.0)

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_shrinks_with_samples(self):
        small = summarize([1.0, 2.0] * 5)
        large = summarize([1.0, 2.0] * 500)
        assert large.ci95_half_width < small.ci95_half_width


class TestProportionCI:
    def test_contains_point_estimate(self):
        low, high = proportion_ci95(90, 100)
        assert low <= 0.9 <= high

    def test_bounds_clamped(self):
        low, high = proportion_ci95(0, 10)
        assert low == 0.0
        low, high = proportion_ci95(10, 10)
        assert high == 1.0

    def test_narrower_with_more_trials(self):
        narrow = proportion_ci95(900, 1000)
        wide = proportion_ci95(9, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_ci95(1, 0)
        with pytest.raises(ValueError):
            proportion_ci95(11, 10)
        with pytest.raises(ValueError):
            proportion_ci95(-1, 10)

    def test_zero_successes_interval_is_informative(self):
        # Wilson at 0/n: lower bound pins to 0 but the upper bound
        # stays strictly positive and below 1 — unlike the Wald
        # interval, which degenerates to (0, 0).
        low, high = proportion_ci95(0, 20)
        assert low == 0.0
        assert 0.0 < high < 1.0

    def test_all_successes_interval_is_informative(self):
        low, high = proportion_ci95(20, 20)
        assert high == 1.0
        assert 0.0 < low < 1.0

    def test_extremes_tighten_with_trials(self):
        few = proportion_ci95(0, 5)
        many = proportion_ci95(0, 500)
        assert many[1] < few[1]

    def test_single_trial(self):
        low, high = proportion_ci95(1, 1)
        assert 0.0 <= low < 1.0 and high == 1.0
        low, high = proportion_ci95(0, 1)
        assert low == 0.0 and 0.0 < high <= 1.0


class TestRelativeError:
    def test_value(self):
        assert math.isclose(relative_error(1.1, 1.0), 0.1)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestEmpiricalCDF:
    def test_from_samples_with_censoring(self):
        cdf = EmpiricalCDF.from_samples([1.0, None, 3.0, 2.0])
        assert cdf.total == 4
        assert cdf.times == (1.0, 2.0, 3.0)
        assert cdf.completion_fraction == 0.75

    def test_value_steps(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0, None])
        assert cdf.value(0.5) == 0.0
        assert cdf.value(1.0) == 0.25
        assert cdf.value(2.5) == 0.5
        assert cdf.value(100.0) == 0.75  # censored sample never completes

    def test_monotone_on_grid(self):
        cdf = EmpiricalCDF.from_samples([0.5, 1.5, 2.5, 2.5, None])
        curve = cdf.sample_curve([0.0, 1.0, 2.0, 3.0, 4.0])
        assert curve == sorted(curve)

    def test_empty(self):
        cdf = EmpiricalCDF.from_samples([])
        assert cdf.value(10.0) == 0.0
        assert cdf.completion_fraction == 0.0

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(times=(2.0, 1.0), total=2)

    def test_total_smaller_than_events_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(times=(1.0, 2.0), total=1)
