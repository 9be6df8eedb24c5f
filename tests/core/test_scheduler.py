"""Tests for the §5 master scheduling policy."""

from __future__ import annotations

import math

import pytest

from repro.bluetooth.constants import TICKS_PER_TRAIN_DWELL
from repro.bluetooth.hopping import Train, TrainStrategy
from repro.core.scheduler import MasterSchedulingPolicy


class TestDefaults:
    def test_paper_numbers(self):
        policy = MasterSchedulingPolicy()
        assert policy.inquiry_window_seconds == 3.84
        assert policy.operational_cycle_seconds == 15.4
        assert math.isclose(policy.serving_window_seconds, 11.56)
        assert 0.24 <= policy.tracking_load <= 0.25

    def test_window_is_one_and_a_half_dwells(self):
        policy = MasterSchedulingPolicy()
        assert policy.inquiry_window_ticks == TICKS_PER_TRAIN_DWELL * 3 // 2

    def test_covers_full_dwell(self):
        assert MasterSchedulingPolicy().covers_full_dwell()
        short = MasterSchedulingPolicy(inquiry_window_seconds=1.0)
        assert not short.covers_full_dwell()

    def test_describe_mentions_load(self):
        text = MasterSchedulingPolicy().describe()
        assert "3.84" in text and "%" in text


class TestDerivation:
    def test_from_building_parameters_matches_paper(self):
        policy = MasterSchedulingPolicy.from_building_parameters()
        assert math.isclose(policy.operational_cycle_seconds, 20.0 / 1.3)
        assert round(policy.operational_cycle_seconds, 1) == 15.4

    def test_smaller_rooms_shorter_cycle(self):
        policy = MasterSchedulingPolicy.from_building_parameters(
            coverage_diameter_m=10.0, inquiry_window_seconds=2.56
        )
        assert policy.operational_cycle_seconds < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MasterSchedulingPolicy(inquiry_window_seconds=0.0)
        with pytest.raises(ValueError):
            MasterSchedulingPolicy(
                inquiry_window_seconds=20.0, operational_cycle_seconds=15.0
            )


class TestScheduleMaterialisation:
    def test_periodic_structure(self):
        policy = MasterSchedulingPolicy()
        schedule = policy.build_schedule()
        assert schedule.windows.window_ticks == policy.inquiry_window_ticks
        assert schedule.windows.period_ticks == policy.operational_cycle_ticks
        assert schedule.is_listening(0)
        assert not schedule.is_listening(policy.inquiry_window_ticks + 1)
        assert schedule.is_listening(policy.operational_cycle_ticks + 5)

    def test_stagger_offset(self):
        schedule = MasterSchedulingPolicy().build_schedule(start_tick=1000)
        assert not schedule.is_listening(500)
        assert schedule.is_listening(1000)

    def test_strategy_and_train_propagate(self):
        # Every §5 window starts on train A and alternates trains.
        schedule = MasterSchedulingPolicy().build_schedule()
        assert schedule.strategy is TrainStrategy.ALTERNATE
        assert schedule.start_train is Train.A
