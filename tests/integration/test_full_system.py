"""Integration scenarios exercising the whole stack at once."""

from __future__ import annotations

import pytest

from repro.building.layouts import academic_department, multi_floor_department
from repro.core.config import BIPSConfig
from repro.core.errors import NotLoggedInError
from repro.core.reports import OccupancyReport
from repro.core.simulation import BIPSSimulation
from repro.lan.messages import LocationResponse


class TestMultiFloorDeployment:
    @pytest.fixture(scope="class")
    def sim(self):
        simulation = BIPSSimulation(
            plan=multi_floor_department(2), config=BIPSConfig(seed=42)
        )
        simulation.add_user("u-up", "Upstairs")
        simulation.add_user("u-down", "Downstairs")
        simulation.login("u-up")
        simulation.login("u-down")
        simulation.follow_route("u-up", ["f1/seminar"])
        simulation.follow_route("u-down", ["f0/lab-1"])
        simulation.run(until_seconds=120.0)
        return simulation

    def test_both_floors_track(self, sim):
        assert sim.server.locate("u-down", "Upstairs") == "f1/seminar"
        assert sim.server.locate("u-up", "Downstairs") == "f0/lab-1"

    def test_cross_floor_navigation(self, sim):
        path = sim.server.navigate("u-down", "Upstairs")
        assert path is not None
        assert path.rooms[0] == "f0/lab-1"
        assert path.rooms[-1] == "f1/seminar"
        # The route climbs through the stairwell corridors.
        assert "f0/corridor-w" in path.rooms
        assert "f1/corridor-w" in path.rooms

    def test_one_workstation_per_room(self, sim):
        assert len(sim.workstations) == 24
        sim_rooms = {ws.room_id for ws in sim.workstations.values()}
        assert sim_rooms == set(sim.plan.room_ids())


class TestFullFeatureRun:
    """Everything on at once: enrolment, interference, refresh, loss."""

    @pytest.fixture(scope="class")
    def sim(self):
        simulation = BIPSSimulation(
            plan=academic_department(),
            config=BIPSConfig(
                seed=77,
                enroll_users=True,
                model_interference=True,
                lan_loss_probability=0.05,
                refresh_interval_cycles=3,
            ),
        )
        for index in range(5):
            userid = f"u-{index}"
            simulation.add_user(userid, f"User{index}")
            simulation.login(userid)
        rng = simulation.rng.child("scenario")
        rooms = simulation.plan.room_ids()
        for index in range(5):
            simulation.walk(
                f"u-{index}",
                start_room=rng.choice(rooms),
                hops=3,
                start_at_seconds=rng.uniform(0.0, 30.0),
            )
        simulation.run(until_seconds=500.0)
        return simulation

    def test_tracking_survives_everything(self, sim):
        report = sim.tracking_report()
        assert report.mean_accuracy > 0.70
        assert all(user.detection_rate > 0.5 for user in report.users)

    def test_enrolment_happened(self, sim):
        assert sum(ws.enrolled for ws in sim.workstations.values()) >= 5

    def test_interference_was_active(self, sim):
        assert sim.band is not None and sim.band.stats.checks > 0

    def test_refresh_was_active(self, sim):
        assert sum(ws.refreshes_sent for ws in sim.workstations.values()) > 0

    def test_occupancy_report_consistent_with_db(self, sim):
        analytics = OccupancyReport(
            sim.server.location_db, sim.server.registry, sim.plan
        )
        assert sum(room.count for room in analytics.occupancy()) == sim.server.location_db.known_count


class TestSessionLifecycle:
    def test_logout_mid_walk_hides_user(self):
        sim = BIPSSimulation(config=BIPSConfig(seed=5))
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["lab-1", "corridor-w"])
        sim.run(until_seconds=60.0)
        assert sim.server.locate("u-b", "A") is not None
        sim.logout("u-a")
        with pytest.raises(NotLoggedInError):
            sim.server.locate("u-b", "A")
        # The device keeps moving and being discovered, but the DB was
        # purged and re-fills only anonymously (device-keyed).
        sim.run(until_seconds=120.0)

    def test_relogin_resumes_tracking(self):
        sim = BIPSSimulation(config=BIPSConfig(seed=6))
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["seminar"])
        sim.run(until_seconds=60.0)
        sim.logout("u-a")
        sim.login("u-a")
        sim.run(until_seconds=150.0)
        assert sim.server.locate("u-b", "A") == "seminar"


class TestDeterminism:
    def test_identical_seeds_identical_outcomes(self):
        def run(seed):
            sim = BIPSSimulation(config=BIPSConfig(seed=seed))
            sim.add_user("u-a", "A")
            sim.login("u-a")
            sim.walk("u-a", start_room="lab-1", hops=4)
            sim.run(until_seconds=300.0)
            history = sim.server.location_db.history_of(sim.user("u-a").device.address)
            return [(event.tick, event.room_id) for event in history]

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_lan_query_and_tracking_agree(self):
        sim = BIPSSimulation(config=BIPSConfig(seed=7))
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["library"])
        sim.run(until_seconds=60.0)
        direct = sim.server.locate("u-b", "A")
        sim.query_location_via_lan("u-b", "A")
        sim.run(until_seconds=61.0)
        response = next(
            m for m in sim.user("u-b").inbox if isinstance(m, LocationResponse)
        )
        assert response.room_id == direct == "library"

