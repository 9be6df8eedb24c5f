"""Tests for §2 enrolment: discovery → page → piconet membership."""

from __future__ import annotations

import pytest

from repro.bluetooth.constants import MAX_ACTIVE_SLAVES
from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from tests.layouts import linear_wing


def enrolling_sim(plan=None, seed=21, **overrides):
    return BIPSSimulation(
        plan=plan if plan is not None else two_room_testbed(),
        config=BIPSConfig(seed=seed, enroll_users=True, **overrides),
    )


class TestEnrollment:
    def test_present_user_gets_connected(self):
        sim = enrolling_sim()
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["room-a"])
        sim.run(until_seconds=120.0)
        workstation = sim.workstations["room-a"]
        assert workstation.enrolled == 1
        connection = workstation.piconet.connection_of(sim.user("u-a").device.address)
        assert connection is not None and connection.active

    def test_departure_detaches(self):
        sim = enrolling_sim(plan=linear_wing(3))
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["wing-0", "wing-1"])
        sim.run(until_seconds=600.0)
        device = sim.user("u-a").device.address
        assert sim.workstations["wing-0"].piconet.connection_of(device) is None
        assert sim.workstations["wing-1"].piconet.connection_of(device) is not None

    def test_piconet_capacity_limits_enrolment(self):
        """More than seven users in one room exceed the AM_ADDR space."""
        sim = enrolling_sim()
        user_count = 10
        for index in range(user_count):
            userid = f"u-{index}"
            sim.add_user(userid, f"U{index}")
            sim.login(userid)
            sim.follow_route(userid, ["room-a"])
        sim.run(until_seconds=200.0)
        workstation = sim.workstations["room-a"]
        assert workstation.piconet.active_count == MAX_ACTIVE_SLAVES
        assert workstation.enrolled == MAX_ACTIVE_SLAVES
        assert workstation.enroll_rejected_full >= user_count - MAX_ACTIVE_SLAVES
        # Tracking still covers everyone: presence is inquiry-based.
        present = workstation.tracker.present_devices
        assert len(present) == user_count

    def test_enrolment_off_by_default(self):
        sim = BIPSSimulation(plan=two_room_testbed(), config=BIPSConfig(seed=21))
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["room-a"])
        sim.run(until_seconds=120.0)
        assert sim.workstations["room-a"].enrolled == 0
        assert sim.workstations["room-a"].piconet.active_count == 0

    def test_unknown_devices_not_paged(self, kernel):
        """A directory miss (unregistered device) skips enrolment."""
        sim = enrolling_sim()
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["room-a"])
        # Sabotage the directory.
        sim._devices_by_address.clear()
        sim.run(until_seconds=120.0)
        assert sim.workstations["room-a"].enrolled == 0

    def test_failure_drops_piconet(self):
        sim = enrolling_sim()
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["room-a"])
        sim.run(until_seconds=120.0)
        workstation = sim.workstations["room-a"]
        assert workstation.piconet.active_count == 1
        workstation.set_failed(True)
        assert workstation.piconet.active_count == 0
