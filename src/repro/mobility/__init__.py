"""Pedestrian mobility: speeds, residence times, and room-to-room walks."""

from .residence import (
    PICONET_DIAMETER_M,
    crossing_time_seconds,
    tracking_load_fraction,
)
from .speeds import (
    MAX_TRACKED_SPEED_MPS,
    MEAN_WALKING_SPEED_MPS,
    WALKING_SPEED_RANGE_MPS,
    PedestrianSpeedModel,
)
from .walker import BuildingWalker, RoomVisit, WalkTimeline

__all__ = [
    "PICONET_DIAMETER_M",
    "crossing_time_seconds",
    "tracking_load_fraction",
    "MAX_TRACKED_SPEED_MPS",
    "MEAN_WALKING_SPEED_MPS",
    "WALKING_SPEED_RANGE_MPS",
    "PedestrianSpeedModel",
    "BuildingWalker",
    "RoomVisit",
    "WalkTimeline",
]
