"""The fault plan: profiles, windows, and seed determinism."""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, in_windows
from repro.faults.profiles import PROFILES, FaultProfile, profile_named, profile_names
from repro.sim.clock import ticks_from_seconds

HORIZON = ticks_from_seconds(600.0)


class TestProfiles:
    def test_registry_contains_the_documented_profiles(self):
        assert {"none", "lossy-lan", "flaky-workstations", "brownout", "chaos"} <= set(
            profile_names()
        )

    def test_unknown_profile_raises_with_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            profile_named("total-mayhem")
        assert "lossy-lan" in str(excinfo.value)

    def test_none_profile_is_noop(self):
        assert PROFILES["none"].is_noop
        assert FaultPlan.named("none").is_noop

    def test_every_other_profile_is_not_noop(self):
        for name in profile_names():
            if name != "none":
                assert not PROFILES[name].is_noop, name

    def test_profiles_validate_probabilities(self):
        with pytest.raises(ValueError):
            FaultProfile(name="bad", drop_probability=1.5)


class TestWindows:
    def test_same_seed_same_windows(self):
        plan_a = FaultPlan.named("chaos", seed=7)
        plan_b = FaultPlan.named("chaos", seed=7)
        assert plan_a.crash_windows("lab-1", HORIZON) == plan_b.crash_windows(
            "lab-1", HORIZON
        )
        assert plan_a.brownout_windows(HORIZON) == plan_b.brownout_windows(HORIZON)
        assert plan_a.radio_outages("3", HORIZON) == plan_b.radio_outages("3", HORIZON)

    def test_different_seeds_differ(self):
        windows = {
            FaultPlan.named("chaos", seed=s).crash_windows("lab-1", HORIZON)
            for s in range(6)
        }
        assert len(windows) > 1

    def test_rooms_get_independent_windows(self):
        plan = FaultPlan.named("chaos", seed=7)
        assert plan.crash_windows("lab-1", HORIZON) != plan.crash_windows(
            "lab-2", HORIZON
        )

    def test_windows_are_sorted_disjoint_and_clamped(self):
        plan = FaultPlan.named("chaos", seed=11)
        limit = plan.active_until_tick()
        for room in ("lab-1", "lab-2", "office-3"):
            windows = plan.crash_windows(room, HORIZON)
            previous_end = 0
            for start, end in windows:
                assert 0 <= start < end <= min(HORIZON, limit)
                assert start >= previous_end
                previous_end = end

    def test_recovery_lands_inside_the_active_window(self):
        # The precondition of every convergence invariant: after the
        # fault window closes, nothing is still broken.
        plan = FaultPlan.named("flaky-workstations", seed=3)
        limit = plan.active_until_tick()
        for room in ("a", "b", "c", "d"):
            for _start, end in plan.crash_windows(room, HORIZON):
                assert end <= limit

    def test_noop_plan_expands_to_nothing(self):
        plan = FaultPlan.named("none", seed=9)
        assert plan.crash_windows("lab-1", HORIZON) == ()
        assert plan.brownout_windows(HORIZON) == ()
        assert plan.radio_outages("0", HORIZON) == ()
        assert plan.lan_injector() is None
        assert plan.survival_predicate("0", HORIZON) is None

    def test_in_windows(self):
        windows = ((10, 20), (30, 40))
        assert in_windows(windows, 10)
        assert in_windows(windows, 19)
        assert not in_windows(windows, 20)
        assert not in_windows(windows, 25)
        assert in_windows(windows, 39)

    def test_survival_predicate_tracks_outages(self):
        plan = FaultPlan.named("flaky-workstations", seed=5)
        outages = plan.radio_outages("0", HORIZON)
        assert outages  # the profile has a radio-outage axis
        reachable = plan.survival_predicate("0", HORIZON)
        start, end = outages[0]
        assert not reachable(None, start)
        assert reachable(None, end)
