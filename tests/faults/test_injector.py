"""The LAN fault injector: decision streams and metrics."""

from __future__ import annotations

from repro.core import BIPSConfig, BIPSSimulation
from repro.faults import NO_FAULT, FaultPlan, LANFaultInjector, profile_named
from repro.sim.rng import RandomStream


#: A fault window no test send reaches the end of.
NEVER = 1 << 62


def _injector(profile_name="lossy-lan", seed=7, active_until_tick=NEVER):
    return LANFaultInjector(
        profile_named(profile_name), RandomStream(seed, "faults", "lan"), active_until_tick
    )


def _drain(injector, count=500):
    return [injector.decide(0, "ws:a", "server", f"m{i}") for i in range(count)]


class TestDecisions:
    def test_same_seed_same_decision_stream(self):
        assert _drain(_injector(seed=3)) == _drain(_injector(seed=3))

    def test_different_seed_different_stream(self):
        assert _drain(_injector(seed=3)) != _drain(_injector(seed=4))

    def test_lossy_profile_actually_drops_and_duplicates(self):
        injector = _injector()
        decisions = _drain(injector, 2000)
        assert injector.decisions == 2000
        assert any(d.drop for d in decisions)
        assert any(d.duplicates for d in decisions)
        assert any(d.extra_delay_ticks for d in decisions)
        # Drop rate should be in the neighbourhood of the profile's 5%.
        assert 0.02 < injector.dropped / injector.decisions < 0.10

    def test_noop_profile_never_faults(self):
        injector = _injector("none")
        assert all(d is NO_FAULT for d in _drain(injector))
        assert injector.decisions == 0

    def test_inactive_past_the_active_window(self):
        injector = _injector(active_until_tick=100)
        assert injector.decide(100, "a", "b", "m") is NO_FAULT
        assert injector.decide(10_000, "a", "b", "m") is NO_FAULT
        assert injector.decisions == 0

    def test_drop_short_circuits_other_draws(self):
        injector = _injector()
        for decision in _drain(injector, 1000):
            if decision.drop:
                assert decision.extra_delay_ticks == 0
                assert decision.duplicates == 0


class TestMetrics:
    def test_counters_match_internal_tallies(self):
        # The injector pushes only its delay histogram; the simulation
        # folds its tallies into the ``faults.lan_*`` counters.
        sim = BIPSSimulation(
            config=BIPSConfig(seed=13), faults=FaultPlan.named("lossy-lan", seed=7)
        )
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.walk("u-a", start_room="lab-1", hops=6)
        sim.run(until_seconds=300.0)
        sim.finalize_metrics()
        injector = sim.lan.faults
        snapshot = {record["name"]: record for record in sim.metrics.snapshot()}
        assert snapshot["faults.lan_dropped"]["value"] == injector.dropped
        assert snapshot["faults.lan_duplicated"]["value"] == injector.duplicated
        assert snapshot["faults.lan_delayed"]["value"] == injector.delayed
        assert snapshot["faults.lan_reordered"]["value"] == injector.reordered
        assert injector.dropped > 0
