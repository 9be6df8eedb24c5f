"""Radio substrate: band interference and the collision channel."""

from .channel import ChannelStats, CollisionRecord, ResponseChannel
from .interference import PER_NEIGHBOR_COLLISION_PROBABILITY, SharedBand

__all__ = [
    "ChannelStats",
    "CollisionRecord",
    "ResponseChannel",
    "PER_NEIGHBOR_COLLISION_PROBABILITY",
    "SharedBand",
]
