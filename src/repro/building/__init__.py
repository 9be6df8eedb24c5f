"""Buildings: geometry, floor plans, and canonical layouts.

The paper's location granule is the room (§2); this package models the
rooms-and-passages graph that the mobility and core layers share.
"""

from repro.building.floorplan import FloorPlan, FloorPlanError, Passage, Room
from repro.building.geometry import Rect
from repro.building.layouts import (
    academic_department,
    multi_floor_department,
    two_room_testbed,
)
from repro.building.render import render_occupancy

__all__ = [
    "FloorPlan",
    "FloorPlanError",
    "Passage",
    "Rect",
    "Room",
    "academic_department",
    "multi_floor_department",
    "render_occupancy",
    "two_room_testbed",
]
