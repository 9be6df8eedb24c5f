"""Room-to-room walks through a building.

A :class:`BuildingWalker` produces the *room visit timeline* of one
mobile user: which room they are in, from when to when.  This is the
ground truth the BIPS tracker is measured against in the end-to-end
experiments (tracking accuracy = fraction of time the location database
agrees with the timeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.building.floorplan import FloorPlan
from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream

from .speeds import PedestrianSpeedModel


@dataclass(frozen=True)
class RoomVisit:
    """One stay in one room: ``[enter_tick, leave_tick)``.

    ``leave_tick`` is None for the final (open-ended) visit.
    """

    room_id: str
    enter_tick: int
    leave_tick: Optional[int]

    def contains(self, tick: int) -> bool:
        """Whether the user is in this room at ``tick``."""
        if tick < self.enter_tick:
            return False
        return self.leave_tick is None or tick < self.leave_tick


@dataclass
class WalkTimeline:
    """The full movement history of one user."""

    visits: list[RoomVisit] = field(default_factory=list)

    def room_at(self, tick: int) -> Optional[str]:
        """Ground-truth room at ``tick`` (None before the walk starts)."""
        for visit in self.visits:
            if visit.contains(tick):
                return visit.room_id
        return None


class BuildingWalker:
    """Generates a user's movement through a floor plan.

    Movement alternates dwells (random-waypoint-style stays, here
    reduced to a dwell duration) and transits along passages at a drawn
    walking speed.  The route is a random walk on the room graph, or a
    fixed itinerary when one is supplied.
    """

    def __init__(
        self,
        plan: FloorPlan,
        rng: RandomStream,
        speed_model: Optional[PedestrianSpeedModel] = None,
        dwell_low_seconds: float = 20.0,
        dwell_high_seconds: float = 120.0,
    ) -> None:
        if not 0.0 <= dwell_low_seconds <= dwell_high_seconds:
            raise ValueError(
                f"invalid dwell band: [{dwell_low_seconds}, {dwell_high_seconds}]"
            )
        plan.validate()
        self.plan = plan
        self.rng = rng
        self.speed_model = speed_model if speed_model is not None else PedestrianSpeedModel()
        self.dwell_low_seconds = dwell_low_seconds
        self.dwell_high_seconds = dwell_high_seconds

    def _draw_dwell_ticks(self) -> int:
        seconds = self.rng.uniform(self.dwell_low_seconds, self.dwell_high_seconds)
        return max(1, ticks_from_seconds(seconds))

    def _transit_ticks(self, distance_m: float) -> int:
        speed = self.speed_model.draw_walking_speed(self.rng)
        return max(1, ticks_from_seconds(distance_m / speed))

    def random_route(self, start_room: str, hops: int) -> list[str]:
        """A random walk of ``hops`` moves starting at ``start_room``."""
        if start_room not in self.plan.rooms:
            raise ValueError(f"unknown start room {start_room!r}")
        if hops < 0:
            raise ValueError(f"hops must be non-negative: {hops}")
        route = [start_room]
        current = start_room
        for _ in range(hops):
            neighbors = self.plan.neighbors(current)
            next_room = self.rng.choice([room for room, _ in neighbors])
            route.append(next_room)
            current = next_room
        return route

    def timeline(
        self,
        route: Sequence[str],
        start_tick: int = 0,
    ) -> WalkTimeline:
        """Timestamp a route into a :class:`WalkTimeline`.

        Transit time between consecutive rooms comes from the passage
        distance and a per-leg speed draw; the user "belongs" to the
        destination room from the moment they leave the previous one
        (the corridor hand-off is attributed to the destination, which
        matches how a BIPS workstation would first discover them).
        """
        if not route:
            raise ValueError("route is empty")
        visits: list[RoomVisit] = []
        tick = start_tick
        for index, room_id in enumerate(route):
            if room_id not in self.plan.rooms:
                raise ValueError(f"unknown room {room_id!r} in route")
            enter = tick
            # The last room's dwell is drawn too, though its visit stays
            # open: later draws from the stream depend on it.
            tick += self._draw_dwell_ticks()
            if index + 1 < len(route):
                passage = self.plan.passage_between(room_id, route[index + 1])
                if passage is None:
                    raise ValueError(
                        f"route steps between non-adjacent rooms "
                        f"{room_id!r} -> {route[index + 1]!r}"
                    )
                tick += self._transit_ticks(passage.distance_m)
                visits.append(RoomVisit(room_id, enter, tick))
            else:
                visits.append(RoomVisit(room_id, enter, None))
        return WalkTimeline(visits=visits)

    def random_timeline(self, start_room: str, hops: int, start_tick: int = 0) -> WalkTimeline:
        """Convenience: random route + timestamps."""
        return self.timeline(self.random_route(start_room, hops), start_tick=start_tick)
