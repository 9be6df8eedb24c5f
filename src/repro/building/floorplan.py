"""Floor plans: rooms joined by passages.

The paper's deployment unit is "one workstation per room" (§2), so a
building is modelled as a graph whose nodes are rooms (with a geometric
footprint for the occupancy map) and whose edges are passages with a
walking distance (for the mobility model and the path-query service).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.building.geometry import Rect


class FloorPlanError(ValueError):
    """A floor plan is structurally invalid."""


@dataclass(frozen=True)
class Room:
    """One room: the BIPS location granule, with one workstation (§2)."""

    room_id: str
    footprint: Rect
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.room_id:
            raise FloorPlanError("room_id must be non-empty")
        if self.label is None:
            object.__setattr__(self, "label", self.room_id)


@dataclass(frozen=True)
class Passage:
    """A walkable connection between two rooms.

    ``distance_m`` is the door-to-door walking distance, which need not
    match the geometric gap (corridors bend).
    """

    room_a: str
    room_b: str
    distance_m: float

    def __post_init__(self) -> None:
        if self.room_a == self.room_b:
            raise FloorPlanError(f"passage connects {self.room_a!r} to itself")
        if self.distance_m <= 0:
            raise FloorPlanError(
                f"passage {self.room_a!r}<->{self.room_b!r} has non-positive "
                f"distance {self.distance_m!r}"
            )

    def other(self, room_id: str) -> str:
        """The far end of the passage, seen from ``room_id``."""
        if room_id == self.room_a:
            return self.room_b
        if room_id == self.room_b:
            return self.room_a
        raise KeyError(f"{room_id!r} is not an endpoint of this passage")

    def joins(self, a: str, b: str) -> bool:
        return {self.room_a, self.room_b} == {a, b}


PassageSpec = Union[Passage, tuple]


@dataclass
class FloorPlan:
    """Rooms plus passages; the substrate every other layer builds on."""

    rooms: dict[str, Room] = field(default_factory=dict)
    passages: list[Passage] = field(default_factory=list)

    @classmethod
    def from_rooms(
        cls,
        rooms: Sequence[Room],
        passages: Iterable[PassageSpec] = (),
    ) -> "FloorPlan":
        """Build a plan from a room list and passage specs.

        Passages may be :class:`Passage` instances or
        ``(room_a, room_b, distance_m)`` tuples.
        """
        room_map: dict[str, Room] = {}
        for room in rooms:
            if room.room_id in room_map:
                raise FloorPlanError(f"duplicate room id {room.room_id!r}")
            room_map[room.room_id] = room
        passage_list = [
            spec if isinstance(spec, Passage) else Passage(*spec) for spec in passages
        ]
        plan = cls(rooms=room_map, passages=passage_list)
        plan.validate()
        return plan

    def room_ids(self) -> list[str]:
        """Room ids in insertion (deployment) order."""
        return list(self.rooms)

    def room(self, room_id: str) -> Room:
        """The room called ``room_id`` (KeyError if unknown)."""
        return self.rooms[room_id]

    def neighbors(self, room_id: str) -> list[tuple[str, Passage]]:
        """``(neighbor_room_id, passage)`` pairs for ``room_id``."""
        if room_id not in self.rooms:
            raise KeyError(f"unknown room {room_id!r}")
        result: list[tuple[str, Passage]] = []
        for passage in self.passages:
            if room_id in (passage.room_a, passage.room_b):
                result.append((passage.other(room_id), passage))
        return result

    def passage_between(self, a: str, b: str) -> Optional[Passage]:
        """The passage joining ``a`` and ``b``, or None if not adjacent."""
        for passage in self.passages:
            if passage.joins(a, b):
                return passage
        return None

    def validate(self) -> None:
        """Raise :class:`FloorPlanError` if the plan is malformed.

        Checks: at least one room, passages reference known rooms, no
        duplicate passages, and the room graph is connected (a
        disconnected wing could never answer path queries).
        """
        if not self.rooms:
            raise FloorPlanError("floor plan has no rooms")
        seen_pairs: set[frozenset[str]] = set()
        for passage in self.passages:
            for endpoint in (passage.room_a, passage.room_b):
                if endpoint not in self.rooms:
                    raise FloorPlanError(
                        f"passage references unknown room {endpoint!r}"
                    )
            pair = frozenset((passage.room_a, passage.room_b))
            if pair in seen_pairs:
                raise FloorPlanError(
                    f"duplicate passage {passage.room_a!r}<->{passage.room_b!r}"
                )
            seen_pairs.add(pair)
        self._check_connected()

    def _check_connected(self) -> None:
        ids = self.room_ids()
        reached = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            current = frontier.pop()
            for neighbor, _ in self.neighbors(current):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        missing = [room_id for room_id in ids if room_id not in reached]
        if missing:
            raise FloorPlanError(f"floor plan is disconnected: unreachable {missing}")

    @property
    def bounding_box(self) -> Rect:
        """The smallest rectangle containing every footprint."""
        if not self.rooms:
            raise FloorPlanError("floor plan has no rooms")
        footprints = [room.footprint for room in self.rooms.values()]
        return Rect(
            min(f.x_min for f in footprints),
            min(f.y_min for f in footprints),
            max(f.x_max for f in footprints),
            max(f.y_max for f in footprints),
        )
