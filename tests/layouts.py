"""Floor plans only the tests use."""

from __future__ import annotations

from repro.building.floorplan import FloorPlan, Passage, Room
from repro.building.geometry import Rect


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
