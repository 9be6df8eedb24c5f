"""Tests for building walks."""

from __future__ import annotations

import pytest

from repro.building.layouts import academic_department
from repro.mobility.walker import BuildingWalker, RoomVisit, WalkTimeline
from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream
from tests.layouts import linear_wing


class TestRoomVisit:
    def test_contains(self):
        visit = RoomVisit("a", 100, 200)
        assert not visit.contains(99)
        assert visit.contains(100)
        assert visit.contains(199)
        assert not visit.contains(200)

    def test_open_ended(self):
        visit = RoomVisit("a", 100, None)
        assert visit.contains(10**9)


class TestWalkTimeline:
    def test_room_at(self):
        timeline = WalkTimeline(
            visits=[RoomVisit("a", 0, 100), RoomVisit("b", 100, None)]
        )
        assert timeline.room_at(50) == "a"
        assert timeline.room_at(100) == "b"
        assert timeline.room_at(10**9) == "b"


class TestBuildingWalker:
    def _walker(self, plan=None, seed=7):
        return BuildingWalker(
            plan if plan is not None else academic_department(),
            RandomStream(seed, "walker"),
        )

    def test_random_route_follows_edges(self):
        walker = self._walker()
        route = walker.random_route("lab-1", hops=20)
        assert route[0] == "lab-1"
        assert len(route) == 21
        for a, b in zip(route, route[1:]):
            assert walker.plan.passage_between(a, b) is not None

    def test_timeline_is_contiguous_and_ordered(self):
        walker = self._walker()
        timeline = walker.random_timeline("lab-1", hops=5)
        visits = timeline.visits
        assert len(visits) == 6
        for previous, current in zip(visits, visits[1:]):
            assert previous.leave_tick == current.enter_tick
            assert previous.enter_tick < previous.leave_tick
        assert visits[-1].leave_tick is None  # walk ends open

    def test_dwell_durations_respect_band(self):
        walker = BuildingWalker(
            linear_wing(4),
            RandomStream(9, "walker"),
            dwell_low_seconds=10.0,
            dwell_high_seconds=20.0,
        )
        timeline = walker.timeline(["wing-0", "wing-1", "wing-2"])
        # First visit spans dwell + transit; dwell alone is 10-20 s and
        # the 10 m transit at <=1.5 m/s adds at least ~6.6 s.
        first = timeline.visits[0]
        duration = first.leave_tick - first.enter_tick
        assert duration >= ticks_from_seconds(10.0 + 10.0 / 1.5)
        assert duration <= ticks_from_seconds(20.0 + 10.0 / 1.1) + 1

    def test_route_between_non_adjacent_rejected(self):
        walker = self._walker()
        with pytest.raises(ValueError):
            walker.timeline(["lab-1", "lounge"])  # not adjacent

    def test_unknown_rooms_rejected(self):
        walker = self._walker()
        with pytest.raises(ValueError):
            walker.random_route("ghost", 3)
        with pytest.raises(ValueError):
            walker.timeline(["ghost"])

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            self._walker().timeline([])

    def test_start_tick_offset(self):
        walker = self._walker()
        timeline = walker.random_timeline("lab-1", hops=2, start_tick=5000)
        assert timeline.visits[0].enter_tick == 5000

    def test_deterministic_given_seed(self):
        t1 = self._walker(seed=11).random_timeline("lab-1", hops=4)
        t2 = self._walker(seed=11).random_timeline("lab-1", hops=4)
        assert [v.room_id for v in t1.visits] == [v.room_id for v in t2.visits]
        assert [v.enter_tick for v in t1.visits] == [v.enter_tick for v in t2.visits]
