"""Operational analytics over the location database.

What a facilities operator or the BIPS administrator reads off the
central server: live occupancy, per-room visit statistics, and the
room-to-room movement matrix.  Everything is computed from the
database's own state and history — no access to simulation ground
truth — so these reports describe what the *deployed* system would
actually show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bluetooth.address import BDAddr
from repro.building.floorplan import FloorPlan
from repro.sim.clock import seconds_from_ticks

from .location_db import LocationDatabase
from .registry import UserRegistry


@dataclass(frozen=True)
class RoomOccupancy:
    """Live occupancy of one room."""

    room_id: str
    devices: tuple[BDAddr, ...]
    usernames: tuple[str, ...]

    @property
    def count(self) -> int:
        """Number of devices currently attributed to the room."""
        return len(self.devices)


@dataclass(frozen=True)
class VisitStats:
    """Aggregate visit statistics for one room (from DB history)."""

    room_id: str
    visits: int
    total_dwell_seconds: float

    @property
    def mean_dwell_seconds(self) -> Optional[float]:
        """Mean completed-visit dwell, None if no visits completed."""
        if self.visits == 0:
            return None
        return self.total_dwell_seconds / self.visits


class OccupancyReport:
    """Analytics over a location database + registry + floor plan."""

    def __init__(
        self,
        location_db: LocationDatabase,
        registry: UserRegistry,
        plan: FloorPlan,
    ) -> None:
        self.location_db = location_db
        self.registry = registry
        self.plan = plan

    # -- live state ---------------------------------------------------------

    def occupancy(self) -> list[RoomOccupancy]:
        """Current occupancy of every room, in floor-plan order."""
        result = []
        for room_id in self.plan.room_ids():
            devices = tuple(sorted(self.location_db.occupants_of(room_id)))
            usernames = tuple(
                self._username_of(device) for device in devices
            )
            result.append(
                RoomOccupancy(room_id=room_id, devices=devices, usernames=usernames)
            )
        return result

    def _username_of(self, device: BDAddr) -> str:
        userid = self.registry.userid_of_device(device)
        if userid is None:
            return str(device)
        try:
            return self.registry.user(userid).username
        except Exception:  # unknown id despite binding: show the id
            return userid

    # -- history-derived statistics ---------------------------------------------

    def visit_stats(self, devices: list[BDAddr]) -> dict[str, VisitStats]:
        """Per-room visit counts and dwell times from DB history.

        A "visit" is a maximal run of history in one room, closed by the
        next event (a move or an absence); the final open-ended stay is
        not counted (its dwell is unknown).
        """
        visits: dict[str, int] = {}
        dwell: dict[str, float] = {}
        for device in devices:
            history = self.location_db.history_of(device)
            for current, following in zip(history, history[1:]):
                if current.room_id is None:
                    continue
                visits[current.room_id] = visits.get(current.room_id, 0) + 1
                dwell[current.room_id] = dwell.get(current.room_id, 0.0) + (
                    seconds_from_ticks(following.tick - current.tick)
                )
        return {
            room_id: VisitStats(
                room_id=room_id,
                visits=visits.get(room_id, 0),
                total_dwell_seconds=dwell.get(room_id, 0.0),
            )
            for room_id in self.plan.room_ids()
        }

    def movement_matrix(self, devices: list[BDAddr]) -> dict[tuple[str, str], int]:
        """Counts of observed room→room moves (absences skipped).

        The matrix is what corridor-utilisation or space-planning
        studies read; only transitions the *database* observed count, so
        missed detections are invisible here (as they would be in a real
        deployment).
        """
        matrix: dict[tuple[str, str], int] = {}
        for device in devices:
            previous_room: Optional[str] = None
            for event in self.location_db.history_of(device):
                if event.room_id is None:
                    continue
                if previous_room is not None and previous_room != event.room_id:
                    key = (previous_room, event.room_id)
                    matrix[key] = matrix.get(key, 0) + 1
                previous_room = event.room_id
        return matrix

    def busiest_rooms(self, devices: list[BDAddr], top: int = 5) -> list[VisitStats]:
        """Rooms by completed-visit count, descending."""
        if top <= 0:
            raise ValueError(f"top must be positive: {top}")
        stats = sorted(
            self.visit_stats(devices).values(),
            key=lambda s: s.visits,
            reverse=True,
        )
        return stats[:top]
