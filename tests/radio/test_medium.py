"""Tests for the propagation models that set a piconet's coverage."""

from __future__ import annotations

import math

import pytest

from repro.radio.propagation import CoverageModel, LogDistancePathLoss


class TestCoverageModel:
    def test_default_radius_is_ten_meters(self):
        assert CoverageModel().radius_m == 10.0

    def test_in_range_boundary_inclusive(self):
        model = CoverageModel(radius_m=10.0)
        assert model.in_range(10.0)
        assert not model.in_range(10.0001)

    def test_diameter_matches_paper(self):
        # §5: "the diameter of the coverage area is about 20m"
        assert CoverageModel().diameter_m == 20.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            CoverageModel().in_range(-1.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CoverageModel(radius_m=0.0)


class TestLogDistance:
    def test_loss_grows_with_distance(self):
        model = LogDistancePathLoss()
        assert model.path_loss_db(10.0) > model.path_loss_db(2.0)

    def test_reference_distance_clamp(self):
        model = LogDistancePathLoss()
        assert model.path_loss_db(0.1) == model.path_loss_db(1.0)

    def test_exponent_slope(self):
        model = LogDistancePathLoss(exponent=3.0)
        # +30 dB per decade with n = 3.
        delta = model.path_loss_db(10.0) - model.path_loss_db(1.0)
        assert math.isclose(delta, 30.0)

    def test_class2_budget_gives_about_20m(self):
        # Class-2 radio: ~80 dB budget -> ~21.5 m with the defaults,
        # the same regime as the paper's 20 m piconet.
        radius = LogDistancePathLoss().max_range_m(80.0)
        assert 15.0 < radius < 30.0

    def test_coverage_derivation(self):
        coverage = LogDistancePathLoss().coverage(80.0)
        assert coverage.radius_m == LogDistancePathLoss().max_range_m(80.0)

    def test_tiny_budget_clamps_to_reference(self):
        assert LogDistancePathLoss().max_range_m(10.0) == 1.0
