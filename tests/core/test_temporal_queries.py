"""Tests for historical (spatio-temporal) queries and LAN login."""

from __future__ import annotations

import pytest

from tests.layouts import linear_wing
from repro.core.config import BIPSConfig
from repro.core.errors import AccessDeniedError
from repro.core.registry import VisibilityPolicy
from repro.core.simulation import BIPSSimulation
from repro.lan.messages import LoginRequest, LoginResponse
from repro.sim.clock import seconds_from_ticks


def login_via_lan(sim: BIPSSimulation, userid: str) -> None:
    """Log ``userid`` in through the LAN protocol (the handheld's path).

    The :class:`~repro.lan.messages.LoginResponse` lands in the user's
    inbox after the round trip; run the simulation forward to see it.
    """
    user = sim.user(userid)
    sim.lan.send(
        user.endpoint,
        sim.server.endpoint,
        LoginRequest(
            sent_tick=sim.kernel.now,
            userid=userid,
            password=user.password,
            device=user.device.address,
        ),
    )


@pytest.fixture(scope="module")
def tracked_sim():
    sim = BIPSSimulation(plan=linear_wing(3), config=BIPSConfig(seed=61))
    sim.add_user("u-a", "A")
    sim.add_user("u-b", "B")
    sim.add_user("u-hidden", "Hidden", policy=VisibilityPolicy.NOBODY)
    sim.login("u-a")
    sim.login("u-b")
    sim.login("u-hidden")
    sim.follow_route("u-a", ["wing-0", "wing-1", "wing-2"])
    sim.run(until_seconds=600.0)
    return sim


class TestTemporalQueries:
    def test_history_replays_movement(self, tracked_sim):
        sim = tracked_sim
        device = sim.user("u-a").device.address
        history = sim.server.location_db.history_of(device)
        first_wing1 = next(e for e in history if e.room_id == "wing-1")
        t = seconds_from_ticks(first_wing1.tick) + 1.0
        assert sim.server.locate_at_seconds("u-b", "A", t) == "wing-1"

    def test_before_first_sighting_is_unknown(self, tracked_sim):
        assert tracked_sim.server.locate_at_seconds("u-b", "A", 0.0) is None

    def test_current_matches_locate(self, tracked_sim):
        sim = tracked_sim
        now_seconds = sim.kernel.now_seconds
        assert (
            sim.server.locate_at_seconds("u-b", "A", now_seconds)
            == sim.server.locate("u-b", "A")
        )

    def test_access_control_applies_to_history(self, tracked_sim):
        with pytest.raises(AccessDeniedError):
            tracked_sim.server.locate_at_seconds("u-b", "Hidden", 100.0)


class TestLanLogin:
    def test_login_roundtrip_through_facade(self):
        sim = BIPSSimulation(plan=linear_wing(2), config=BIPSConfig(seed=62))
        sim.add_user("u-a", "A")
        login_via_lan(sim, "u-a")
        assert not sim.server.registry.is_logged_in("u-a")  # still in flight
        sim.run(until_seconds=1.0)
        assert sim.server.registry.is_logged_in("u-a")
        responses = [m for m in sim.user("u-a").inbox if isinstance(m, LoginResponse)]
        assert len(responses) == 1 and responses[0].ok
