"""The BIPS core: the paper's primary contribution.

* :class:`UserRegistry` — off-line registration, login/logout,
  access rights (§2)
* :class:`LocationDatabase` — room-granule positions + history (§2)
* :class:`PresenceTracker` / :class:`Workstation` — per-room masters
  turning inquiry sightings into presence deltas (§2, §5)
* :class:`MasterSchedulingPolicy` — the §5 duty cycle (3.84 s / 15.4 s)
* :class:`Graph` / :class:`AllPairsPaths` — Dijkstra and the off-line
  all-pairs precomputation (§2)
* :class:`QueryEngine` / :class:`BIPSServer` — the central server
* :class:`BIPSSimulation` — the end-to-end facade
"""

from .config import BIPSConfig
from .errors import (
    AccessDeniedError,
    AuthenticationError,
    BIPSError,
    NotLoggedInError,
    RegistrationError,
    UnknownRoomError,
    UnknownUserError,
)
from .location_db import LocationDatabase, LocationEvent, LocationRecord
from .pathfinding import AllPairsPaths, Graph, PathResult
from .query import QueryEngine, QueryStats
from .registry import Session, UserRecord, UserRegistry, VisibilityPolicy
from .reports import OccupancyReport, RoomOccupancy, VisitStats
from .scheduler import MasterSchedulingPolicy
from .server import BIPSServer
from .simulation import (
    BIPSSimulation,
    TrackedUser,
    TrackingReport,
    UserTrackingReport,
)
from .tracker import CycleDeltas, PresenceTracker
from .workstation import Workstation

__all__ = [
    "BIPSConfig",
    "AccessDeniedError",
    "AuthenticationError",
    "BIPSError",
    "NotLoggedInError",
    "RegistrationError",
    "UnknownRoomError",
    "UnknownUserError",
    "LocationDatabase",
    "LocationEvent",
    "LocationRecord",
    "AllPairsPaths",
    "Graph",
    "PathResult",
    "QueryEngine",
    "QueryStats",
    "Session",
    "UserRecord",
    "UserRegistry",
    "VisibilityPolicy",
    "OccupancyReport",
    "RoomOccupancy",
    "VisitStats",
    "MasterSchedulingPolicy",
    "BIPSServer",
    "BIPSSimulation",
    "TrackedUser",
    "TrackingReport",
    "UserTrackingReport",
    "CycleDeltas",
    "PresenceTracker",
    "Workstation",
]
