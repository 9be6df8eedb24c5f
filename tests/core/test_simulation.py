"""Integration tests for the end-to-end BIPS simulation facade."""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.errors import AccessDeniedError
from repro.core.registry import VisibilityPolicy
from repro.core.simulation import BIPSSimulation
from repro.lan.messages import LocationResponse, PathResponse
from tests.layouts import linear_wing


def small_sim(seed: int = 1, **config_overrides) -> BIPSSimulation:
    return BIPSSimulation(
        plan=linear_wing(3), config=BIPSConfig(seed=seed, **config_overrides)
    )


class TestSetup:
    def test_one_workstation_per_room(self):
        sim = small_sim()
        assert set(sim.workstations) == {"wing-0", "wing-1", "wing-2"}

    def test_server_knows_workstations_after_start(self):
        sim = small_sim()
        sim.run(until_seconds=1.0)
        assert sim.server.workstation_count == 3

    def test_duplicate_user_rejected(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        with pytest.raises(ValueError):
            sim.add_user("u-a", "A2")

    def test_user_devices_are_unique(self):
        sim = small_sim()
        a = sim.add_user("u-a", "A")
        b = sim.add_user("u-b", "B")
        assert a.device.address != b.device.address

    def test_double_walk_rejected(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        sim.walk("u-a", "wing-0", hops=1)
        with pytest.raises(ValueError):
            sim.walk("u-a", "wing-0", hops=1)


class TestTracking:
    def test_stationary_user_is_found(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-1"])
        sim.run(until_seconds=60.0)
        assert sim.server.locate("u-b", "A") == "wing-1"

    def test_moving_user_tracked_across_rooms(self):
        sim = small_sim(seed=3)
        sim.add_user("u-a", "A")
        sim.login("u-a")
        timeline = sim.follow_route("u-a", ["wing-0", "wing-1", "wing-2"])
        sim.run(until_seconds=600.0)
        history = sim.server.location_db.history_of(sim.user("u-a").device.address)
        rooms_seen = [e.room_id for e in history if e.room_id is not None]
        # The database must have seen the user in every room of the route
        # in order.
        filtered = [r for i, r in enumerate(rooms_seen) if i == 0 or rooms_seen[i - 1] != r]
        assert filtered == ["wing-0", "wing-1", "wing-2"]

    def test_tracking_report_quality(self):
        sim = small_sim(seed=5)
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.walk("u-a", "wing-0", hops=3)
        sim.run(until_seconds=600.0)
        report = sim.tracking_report()
        assert len(report.users) == 1
        user_report = report.users[0]
        assert user_report.accuracy > 0.6
        assert user_report.detection_rate > 0.6
        # Detection latency is bounded by roughly one operational cycle
        # plus scheduling stagger.
        assert user_report.mean_detection_latency_seconds < 2 * 15.4

    def test_logout_stops_tracking(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-1"])
        sim.run(until_seconds=60.0)
        sim.logout("u-a")
        with pytest.raises(Exception):
            sim.server.locate("u-b", "A")  # target no longer logged in


class TestAccessControl:
    def test_visibility_policy_enforced_end_to_end(self):
        sim = small_sim()
        sim.add_user("u-a", "A", policy=VisibilityPolicy.NOBODY)
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-1"])
        sim.run(until_seconds=60.0)
        with pytest.raises(AccessDeniedError):
            sim.server.locate("u-b", "A")


class TestLANQueries:
    def test_location_query_over_lan(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-2"])
        sim.run(until_seconds=60.0)
        query_id = sim.query_location_via_lan("u-b", "A")
        sim.run(until_seconds=61.0)
        responses = [m for m in sim.user("u-b").inbox if isinstance(m, LocationResponse)]
        assert len(responses) == 1
        assert responses[0].query_id == query_id
        assert responses[0].ok and responses[0].room_id == "wing-2"

    def test_path_query_over_lan(self):
        sim = small_sim()
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-2"])
        sim.follow_route("u-b", ["wing-0"])
        sim.run(until_seconds=60.0)
        sim.query_path_via_lan("u-b", "A")
        sim.run(until_seconds=61.0)
        responses = [m for m in sim.user("u-b").inbox if isinstance(m, PathResponse)]
        assert len(responses) == 1
        assert responses[0].ok
        assert responses[0].rooms == ("wing-0", "wing-1", "wing-2")
        assert responses[0].total_distance_m == 20.0


class TestTwoRoomScenario:
    def test_room_handoff_updates_database(self):
        sim = BIPSSimulation(plan=two_room_testbed(), config=BIPSConfig(seed=9))
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["room-a", "room-b"])
        sim.run(until_seconds=400.0)
        assert sim.server.locate("u-b", "A") == "room-b"

    def test_lan_loss_degrades_but_not_fatally(self):
        sim = BIPSSimulation(
            plan=two_room_testbed(),
            config=BIPSConfig(seed=10, lan_loss_probability=0.3),
        )
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["room-a"])
        sim.run(until_seconds=300.0)
        # With 30% loss, the single presence update may be dropped, but
        # the LAN statistics must reflect it.
        assert sim.lan.stats.sent > 0
