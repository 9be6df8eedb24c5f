"""Canonical floor plans used by experiments, examples, and tests.

The paper deployed BIPS in a university department (§2); the layouts
here mirror that setting at several scales:

* :func:`academic_department` — a 12-room floor resembling the paper's
  deployment: labs, offices, a library, a seminar room, and two
  corridors.
* :func:`linear_wing` — ``n`` identical 10 m rooms on a chain, a
  controlled topology whose path lengths are easy to assert on.
* :func:`two_room_testbed` — the smallest interesting building: two
  adjacent rooms, for protocol-level tests.
* :func:`multi_floor_department` — the department replicated per floor,
  with stairwells joining the west corridors.
"""

from __future__ import annotations

from repro.building.floorplan import FloorPlan, Passage, Room
from repro.building.geometry import Rect


def academic_department() -> FloorPlan:
    """The paper-style department: 12 rooms around two corridors."""
    rooms = [
        Room("lab-1", Rect(0, 0, 8, 6), label="Laboratory 1"),
        Room("lab-2", Rect(9, 0, 17, 6), label="Laboratory 2"),
        Room("library", Rect(18, 0, 26, 7), label="Library"),
        Room("seminar", Rect(27, 0, 36, 7), label="Seminar Room"),
        Room("lounge", Rect(37, 0, 42, 6), label="Lounge"),
        Room("corridor-w", Rect(0, 7, 24, 10), label="West Corridor"),
        Room("corridor-e", Rect(24, 7, 42, 10), label="East Corridor"),
        Room("office-1", Rect(0, 11, 5, 16), label="Office 1"),
        Room("office-2", Rect(6, 11, 11, 16), label="Office 2"),
        Room("office-3", Rect(25, 11, 30, 16), label="Office 3"),
        Room("office-4", Rect(31, 11, 36, 16), label="Office 4"),
        Room("kitchen", Rect(37, 11, 42, 16), label="Kitchen"),
    ]
    passages = [
        Passage("lab-1", "corridor-w", 5.0),
        Passage("lab-2", "corridor-w", 5.5),
        Passage("library", "corridor-w", 7.0),
        Passage("office-1", "corridor-w", 4.0),
        Passage("office-2", "corridor-w", 4.5),
        Passage("corridor-w", "corridor-e", 9.0),
        Passage("office-3", "corridor-e", 4.0),
        Passage("office-4", "corridor-e", 4.5),
        Passage("seminar", "corridor-e", 6.0),
        Passage("lounge", "corridor-e", 6.5),
        Passage("kitchen", "corridor-e", 5.0),
    ]
    return FloorPlan.from_rooms(rooms, passages)


def linear_wing(rooms: int) -> FloorPlan:
    """``rooms`` identical 10 m x 10 m rooms on a chain.

    Adjacent rooms are 10.0 m apart door-to-door, so shortest-path
    distances are exact multiples of 10 — handy for asserting on
    navigation answers.
    """
    if rooms < 1:
        raise ValueError(f"a wing needs at least one room: {rooms}")
    room_list = [
        Room(
            f"wing-{index}",
            Rect(11.0 * index, 0, 11.0 * index + 10.0, 10.0),
            label=f"Wing Room {index}",
        )
        for index in range(rooms)
    ]
    passages = [
        Passage(f"wing-{index}", f"wing-{index + 1}", 10.0)
        for index in range(rooms - 1)
    ]
    return FloorPlan.from_rooms(room_list, passages)


def two_room_testbed() -> FloorPlan:
    """Two adjacent rooms: the minimal tracking scenario."""
    rooms = [
        Room("room-a", Rect(0, 0, 8, 8), label="Room A"),
        Room("room-b", Rect(9, 0, 17, 8), label="Room B"),
    ]
    return FloorPlan.from_rooms(rooms, [Passage("room-a", "room-b", 5.0)])


def multi_floor_department(floors: int) -> FloorPlan:
    """The academic department stacked ``floors`` high.

    Room ids gain an ``f{i}/`` prefix; stairwells join consecutive west
    corridors (``f0/corridor-w`` <-> ``f1/corridor-w`` and so on), so
    cross-floor navigation always climbs through the corridors.
    """
    if floors < 1:
        raise ValueError(f"a building needs at least one floor: {floors}")
    template = academic_department()
    rooms: list[Room] = []
    passages: list[Passage] = []
    for floor in range(floors):
        prefix = f"f{floor}/"
        for room in template.rooms.values():
            rooms.append(
                Room(
                    prefix + room.room_id,
                    room.footprint,
                    label=f"F{floor} {room.label}",
                )
            )
        for passage in template.passages:
            passages.append(
                Passage(
                    prefix + passage.room_a,
                    prefix + passage.room_b,
                    passage.distance_m,
                )
            )
    for floor in range(floors - 1):
        passages.append(
            Passage(f"f{floor}/corridor-w", f"f{floor + 1}/corridor-w", 6.0)
        )
    return FloorPlan.from_rooms(rooms, passages)
