"""Radio substrate: propagation, band interference, and the collision channel."""

from .channel import ChannelStats, CollisionRecord, ResponseChannel
from .interference import (
    PER_NEIGHBOR_COLLISION_PROBABILITY,
    InterferenceEstimate,
    SharedBand,
)
from .propagation import (
    DEFAULT_COVERAGE_RADIUS_M,
    CoverageModel,
    LogDistancePathLoss,
)

__all__ = [
    "ChannelStats",
    "CollisionRecord",
    "ResponseChannel",
    "PER_NEIGHBOR_COLLISION_PROBABILITY",
    "InterferenceEstimate",
    "SharedBand",
    "DEFAULT_COVERAGE_RADIUS_M",
    "CoverageModel",
    "LogDistancePathLoss",
]
