"""Tests for the occupancy/analytics reports."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from tests.layouts import linear_wing
from repro.core.location_db import LocationDatabase
from repro.core.registry import UserRegistry
from repro.core.reports import OccupancyReport

A, B = BDAddr(1), BDAddr(2)


@pytest.fixture
def report() -> OccupancyReport:
    registry = UserRegistry()
    registry.register("u-a", "Alice", "pw")
    registry.register("u-b", "Bob", "pw")
    registry.login("u-a", "pw", A, tick=0)
    registry.login("u-b", "pw", B, tick=0)
    return OccupancyReport(LocationDatabase(), registry, linear_wing(3))


class TestOccupancy:
    def test_empty_database(self, report):
        occupancy = report.occupancy()
        assert [room.room_id for room in occupancy] == ["wing-0", "wing-1", "wing-2"]
        assert all(room.count == 0 for room in occupancy)
        assert sum(room.count for room in report.occupancy()) == 0

    def test_resolves_usernames(self, report):
        report.location_db.apply_presence(A, "wing-1", 100, "ws")
        report.location_db.apply_presence(B, "wing-1", 110, "ws")
        occupancy = {room.room_id: room for room in report.occupancy()}
        assert occupancy["wing-1"].count == 2
        assert occupancy["wing-1"].usernames == ("Alice", "Bob")

    def test_unbound_device_shows_address(self, report):
        ghost = BDAddr(0x999)
        report.location_db.apply_presence(ghost, "wing-0", 100, "ws")
        occupancy = {room.room_id: room for room in report.occupancy()}
        assert occupancy["wing-0"].usernames == (str(ghost),)

    def test_total_tracked(self, report):
        report.location_db.apply_presence(A, "wing-0", 100, "ws")
        report.location_db.apply_presence(B, "wing-2", 100, "ws")
        assert sum(room.count for room in report.occupancy()) == 2


class TestVisitStats:
    def _seed_history(self, report):
        db = report.location_db
        db.apply_presence(A, "wing-0", 0, "ws")
        db.apply_presence(A, "wing-1", 3200, "ws")  # 1 s in wing-0
        db.apply_presence(A, "wing-0", 3200 + 6400, "ws")  # 2 s in wing-1
        db.apply_absence(A, "wing-0", 3200 + 6400 + 3200, "ws")  # 1 s again

    def test_visit_stats(self, report):
        self._seed_history(report)
        stats = report.visit_stats([A])
        assert stats["wing-0"].visits == 2
        assert stats["wing-0"].total_dwell_seconds == pytest.approx(2.0)
        assert stats["wing-0"].mean_dwell_seconds == pytest.approx(1.0)
        assert stats["wing-1"].visits == 1
        assert stats["wing-2"].visits == 0
        assert stats["wing-2"].mean_dwell_seconds is None

    def test_open_ended_stay_not_counted(self, report):
        report.location_db.apply_presence(A, "wing-0", 0, "ws")
        stats = report.visit_stats([A])
        assert stats["wing-0"].visits == 0

    def test_movement_matrix(self, report):
        self._seed_history(report)
        matrix = report.movement_matrix([A])
        assert matrix == {("wing-0", "wing-1"): 1, ("wing-1", "wing-0"): 1}

    def test_movement_matrix_skips_absences(self, report):
        db = report.location_db
        db.apply_presence(A, "wing-0", 0, "ws")
        db.apply_absence(A, "wing-0", 100, "ws")
        db.apply_presence(A, "wing-2", 200, "ws")
        matrix = report.movement_matrix([A])
        # wing-0 -> (unknown) -> wing-2 still counts as one move.
        assert matrix == {("wing-0", "wing-2"): 1}

    def test_busiest_rooms(self, report):
        self._seed_history(report)
        busiest = report.busiest_rooms([A], top=2)
        assert busiest[0].room_id == "wing-0"
        assert len(busiest) == 2

    def test_busiest_rooms_validation(self, report):
        with pytest.raises(ValueError):
            report.busiest_rooms([A], top=0)
