"""Tests for the presence tracker's delta logic and hysteresis."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.core.tracker import PresenceTracker

A, B, C = BDAddr(1), BDAddr(2), BDAddr(3)


class TestDeltas:
    def test_first_sighting_is_new_presence(self):
        tracker = PresenceTracker()
        deltas = tracker.observe_cycle([A], tick=100)
        assert deltas.new_presences == (A,)
        assert deltas.new_absences == ()

    def test_repeat_sighting_reports_nothing(self):
        tracker = PresenceTracker()
        tracker.observe_cycle([A], tick=100)
        deltas = tracker.observe_cycle([A], tick=200)
        assert deltas.new_presences == deltas.new_absences == ()

    def test_multiple_devices(self):
        tracker = PresenceTracker()
        deltas = tracker.observe_cycle([B, A], tick=100)
        assert deltas.new_presences == (A, B)  # sorted by address

    def test_cycle_index_increments(self):
        tracker = PresenceTracker()
        first = tracker.observe_cycle([], tick=0)
        second = tracker.observe_cycle([], tick=100)
        assert (first.cycle_index, second.cycle_index) == (0, 1)


class TestHysteresis:
    def test_single_miss_not_absent_with_threshold_two(self):
        tracker = PresenceTracker(miss_threshold=2)
        tracker.observe_cycle([A], tick=0)
        deltas = tracker.observe_cycle([], tick=100)
        assert deltas.new_presences == deltas.new_absences == ()
        assert A in tracker.present_devices

    def test_two_misses_declare_absence(self):
        tracker = PresenceTracker(miss_threshold=2)
        tracker.observe_cycle([A], tick=0)
        tracker.observe_cycle([], tick=100)
        deltas = tracker.observe_cycle([], tick=200)
        assert deltas.new_absences == (A,)
        assert A not in tracker.present_devices

    def test_sighting_resets_miss_counter(self):
        tracker = PresenceTracker(miss_threshold=2)
        tracker.observe_cycle([A], tick=0)
        tracker.observe_cycle([], tick=100)  # one miss
        tracker.observe_cycle([A], tick=200)  # seen again
        deltas = tracker.observe_cycle([], tick=300)  # one miss again
        assert deltas.new_presences == deltas.new_absences == ()
        assert A in tracker.present_devices

    def test_threshold_one_flaps_immediately(self):
        tracker = PresenceTracker(miss_threshold=1)
        tracker.observe_cycle([A], tick=0)
        deltas = tracker.observe_cycle([], tick=100)
        assert deltas.new_absences == (A,)

    def test_reappearance_after_absence_is_new_presence(self):
        tracker = PresenceTracker(miss_threshold=1)
        tracker.observe_cycle([A], tick=0)
        tracker.observe_cycle([], tick=100)
        deltas = tracker.observe_cycle([A], tick=200)
        assert deltas.new_presences == (A,)

    def test_absence_reported_once(self):
        tracker = PresenceTracker(miss_threshold=1)
        tracker.observe_cycle([A], tick=0)
        tracker.observe_cycle([], tick=100)
        deltas = tracker.observe_cycle([], tick=200)
        assert deltas.new_presences == deltas.new_absences == ()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PresenceTracker(miss_threshold=0)


class TestMixedPopulations:
    def test_independent_devices(self):
        tracker = PresenceTracker(miss_threshold=2)
        tracker.observe_cycle([A, B], tick=0)
        tracker.observe_cycle([A], tick=100)  # B misses once
        deltas = tracker.observe_cycle([A, C], tick=200)  # B misses twice, C arrives
        assert deltas.new_presences == (C,)
        assert deltas.new_absences == (B,)
        assert tracker.present_devices == {A, C}

    def test_counters(self):
        tracker = PresenceTracker(miss_threshold=1)
        tracker.observe_cycle([A, B], tick=0)
        tracker.observe_cycle([], tick=100)
        assert tracker.presences_reported == 2
        assert tracker.absences_reported == 2

    def test_force_absent(self):
        tracker = PresenceTracker()
        tracker.observe_cycle([A], tick=0)
        assert tracker.force_absent(A) is True
        assert A not in tracker.present_devices
        assert tracker.force_absent(A) is False

    def test_stale_absent_state_pruned(self):
        tracker = PresenceTracker(miss_threshold=1)
        tracker.observe_cycle([A], tick=0)
        tracker.observe_cycle([], tick=100)  # absent now
        for cycle in range(15):
            tracker.observe_cycle([], tick=200 + cycle * 100)
        # Internal state for A is dropped; a new sighting still works.
        deltas = tracker.observe_cycle([A], tick=5000)
        assert deltas.new_presences == (A,)
