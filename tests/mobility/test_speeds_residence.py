"""Tests for pedestrian speeds and residence-time calculations."""

from __future__ import annotations

import math

import pytest

from repro.mobility.residence import (
    crossing_time_seconds,
    tracking_load_fraction,
)
from repro.mobility.speeds import (
    MAX_TRACKED_SPEED_MPS,
    MEAN_WALKING_SPEED_MPS,
    PedestrianSpeedModel,
)
from repro.sim.rng import RandomStream


class TestSpeedModel:
    def test_default_mean_matches_paper(self):
        # The §5 sizing divides by 1.3 m/s.
        assert math.isclose(PedestrianSpeedModel().mean_walking_speed_mps, 1.3)
        assert MEAN_WALKING_SPEED_MPS == 1.3

    def test_draws_within_band(self):
        model = PedestrianSpeedModel()
        rng = RandomStream(1, "speeds")
        for _ in range(200):
            speed = model.draw_walking_speed(rng)
            assert 1.1 <= speed <= 1.5

    def test_band_validation(self):
        with pytest.raises(ValueError):
            PedestrianSpeedModel(walk_low_mps=2.0, walk_high_mps=1.0)
        with pytest.raises(ValueError):
            PedestrianSpeedModel(walk_high_mps=MAX_TRACKED_SPEED_MPS + 1)


class TestCrossingTime:
    def test_paper_value(self):
        # §5: "20m : 1.3m/s" -> 15.4 s.
        assert math.isclose(crossing_time_seconds(), 20.0 / 1.3)
        assert round(crossing_time_seconds(), 1) == 15.4

    def test_scales_with_parameters(self):
        assert crossing_time_seconds(10.0, 1.0) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            crossing_time_seconds(diameter_m=0)
        with pytest.raises(ValueError):
            crossing_time_seconds(speed_mps=0)


class TestTrackingLoad:
    def test_paper_value(self):
        # §5: "about 24% of the operational cycle".
        load = tracking_load_fraction(3.84, 15.4)
        assert 0.24 <= load <= 0.26

    def test_validation(self):
        with pytest.raises(ValueError):
            tracking_load_fraction(-1.0, 10.0)
        with pytest.raises(ValueError):
            tracking_load_fraction(5.0, 0.0)
        with pytest.raises(ValueError):
            tracking_load_fraction(20.0, 10.0)

