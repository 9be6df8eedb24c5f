"""Tests for the inter-piconet interference model."""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.radio.interference import PER_NEIGHBOR_COLLISION_PROBABILITY, SharedBand
from repro.sim.rng import RandomStream


@pytest.fixture
def band() -> SharedBand:
    return SharedBand(RandomStream(77, "band"))


class TestSharedBand:
    def test_isolated_piconet_never_corrupted(self, band):
        band.register("p1", lambda tick: True)
        assert all(not band.corrupts("p1", t) for t in range(1000))

    def test_idle_neighbor_does_not_interfere(self, band):
        band.register("p1", lambda tick: True)
        band.register("p2", lambda tick: False)  # never on the air
        band.connect("p1", "p2")
        assert band.active_neighbors("p1", 0) == 0
        assert all(not band.corrupts("p1", t) for t in range(1000))

    def test_active_neighbor_corrupts_at_about_1_in_79(self, band):
        band.register("p1", lambda tick: True)
        band.register("p2", lambda tick: True)
        band.connect("p1", "p2")
        hits = sum(1 for t in range(20_000) if band.corrupts("p1", t))
        expected = 20_000 * PER_NEIGHBOR_COLLISION_PROBABILITY
        assert 0.7 * expected <= hits <= 1.3 * expected

    def test_more_neighbors_more_loss(self, band):
        band.register("p1", lambda tick: True)
        for index in range(4):
            band.register(f"n{index}", lambda tick: True)
            band.connect("p1", f"n{index}")
        hits = sum(1 for t in range(20_000) if band.corrupts("p1", t))
        lone_expectation = 20_000 * PER_NEIGHBOR_COLLISION_PROBABILITY
        assert hits > 2.5 * lone_expectation

    def test_time_varying_activity(self, band):
        band.register("p1", lambda tick: True)
        band.register("p2", lambda tick: tick < 100)
        band.connect("p1", "p2")
        assert band.active_neighbors("p1", 50) == 1
        assert band.active_neighbors("p1", 150) == 0

    def test_duplicate_registration_rejected(self, band):
        band.register("p1", lambda tick: True)
        with pytest.raises(ValueError):
            band.register("p1", lambda tick: True)

    def test_connect_validation(self, band):
        band.register("p1", lambda tick: True)
        with pytest.raises(KeyError):
            band.connect("p1", "ghost")
        with pytest.raises(ValueError):
            band.connect("p1", "p1")

    def test_survival_predicate_inverse_of_corrupts(self, band):
        band.register("p1", lambda tick: True)
        band.register("p2", lambda tick: True)
        band.connect("p1", "p2")
        survives = band.survival_predicate("p1")
        losses = sum(1 for t in range(20_000) if not survives(None, t))
        assert losses > 0
        assert band.stats.corrupted == losses


class TestEndToEndInterference:
    def test_simulation_with_interference_still_tracks(self):
        sim = BIPSSimulation(
            plan=two_room_testbed(),
            config=BIPSConfig(seed=13, model_interference=True),
        )
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["room-a"])
        sim.follow_route("u-b", ["room-b"])
        sim.run(until_seconds=300.0)
        assert sim.band is not None
        assert sim.band.stats.checks > 0
        # 1/79-per-neighbour losses do not break room-granule tracking.
        assert sim.server.locate("u-b", "A") == "room-a"
        assert sim.server.locate("u-a", "B") == "room-b"

    def test_band_absent_by_default(self):
        sim = BIPSSimulation(plan=two_room_testbed())
        assert sim.band is None
