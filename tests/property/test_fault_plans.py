"""Property tests: fault-plan expansion over random profiles and seeds.

Whatever rates and seeds a profile carries, the expanded
windows must be sorted, disjoint, clamped inside both the horizon and
the plan's active window, and a pure function of ``(profile, seed)``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultProfile, LANFaultInjector, in_windows
from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream

probabilities = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)


@st.composite
def profiles(draw):
    return FaultProfile(
        name="generated",
        drop_probability=draw(probabilities),
        duplicate_probability=draw(probabilities),
        delay_probability=draw(probabilities),
        reorder_probability=draw(probabilities),
        crashes_per_workstation=draw(st.integers(min_value=0, max_value=4)),
        brownouts=draw(st.integers(min_value=0, max_value=4)),
        radio_outages_per_trial=draw(st.integers(min_value=0, max_value=4)),
    )


seeds = st.integers(min_value=0, max_value=2**31)
horizons = st.integers(min_value=0, max_value=ticks_from_seconds(1200.0))


@given(profiles(), seeds, horizons)
@settings(max_examples=150)
def test_windows_are_sorted_disjoint_and_clamped(profile, seed, horizon):
    plan = FaultPlan(profile=profile, seed=seed)
    limit = min(horizon, plan.active_until_tick())
    for windows in (
        plan.crash_windows("room-x", horizon),
        plan.brownout_windows(horizon),
        plan.radio_outages("0", horizon),
    ):
        previous_end = 0
        for start, end in windows:
            assert 0 <= start < end <= limit
            assert start >= previous_end
            previous_end = end


@given(profiles(), seeds, horizons)
@settings(max_examples=100)
def test_expansion_is_a_pure_function_of_profile_and_seed(profile, seed, horizon):
    plan_a = FaultPlan(profile=profile, seed=seed)
    plan_b = FaultPlan(profile=profile, seed=seed)
    assert plan_a.crash_windows("r", horizon) == plan_b.crash_windows("r", horizon)
    assert plan_a.brownout_windows(horizon) == plan_b.brownout_windows(horizon)
    assert plan_a.radio_outages("7", horizon) == plan_b.radio_outages("7", horizon)


@given(profiles(), seeds, horizons)
@settings(max_examples=100)
def test_survival_predicate_is_consistent_with_the_outages(profile, seed, horizon):
    plan = FaultPlan(profile=profile, seed=seed)
    outages = plan.radio_outages("3", horizon)
    reachable = plan.survival_predicate("3", horizon)
    if not outages:
        assert reachable is None
        return
    for start, end in outages:
        assert reachable(None, start) is False
        assert reachable(None, end - 1) is False
        assert reachable(None, end) is True
    assert not in_windows(outages, horizon)


@given(profiles(), seeds, st.integers(min_value=1, max_value=400))
@settings(max_examples=75)
def test_injector_decisions_replay_exactly(profile, seed, count):
    def drain():
        injector = LANFaultInjector(
            profile, RandomStream(seed, "faults", "lan"),
            active_until_tick=plan_limit,
        )
        return [injector.decide(i, "a", "b", i) for i in range(count)]

    plan_limit = FaultPlan(profile=profile, seed=seed).active_until_tick()
    assert drain() == drain()


@given(profiles(), seeds)
@settings(max_examples=75)
def test_injector_goes_quiet_past_the_active_window(profile, seed):
    plan = FaultPlan(profile=profile, seed=seed)
    limit = plan.active_until_tick()
    if not profile.has_lan_faults:
        return
    injector = LANFaultInjector(
        profile, RandomStream(seed, "faults", "lan"), active_until_tick=limit
    )
    for offset in (0, 1, 1000):
        decision = injector.decide(limit + offset, "a", "b", "m")
        assert not decision.drop
        assert decision.extra_delay_ticks == 0
        assert decision.duplicates == 0
