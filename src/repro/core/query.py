"""The BIPS query engine.

Implements the paper's query semantics (§2): before answering, verify
that the target user is logged in and that the querier has the right to
ask; then resolve username → userid → BD_ADDR → current piconet, and
for navigation queries, look up the precomputed shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bluetooth.address import BDAddr

from .errors import BIPSError
from .location_db import LocationDatabase
from .pathfinding import AllPairsPaths, PathResult
from .registry import UserRegistry


@dataclass
class QueryStats:
    """Counters over the lifetime of the engine.

    ``location_queries`` counts every :meth:`QueryEngine.locate`,
    ``locate_full`` and ``locate_at`` call.  The server's
    ``core.queries_served{kind=location}`` counts only its direct
    ``locate`` calls and LAN location queries: historical reads
    (``locate_at``) and engine calls that bypass the server are not in
    it.
    """

    location_queries: int = 0
    location_denied: int = 0
    location_unknown: int = 0
    location_stale: int = 0
    path_queries: int = 0
    path_denied: int = 0
    by_error: dict[str, int] = field(default_factory=dict)

    def note_error(self, error: BIPSError) -> None:
        """Record a denial/failure by exception type."""
        name = type(error).__name__
        self.by_error[name] = self.by_error.get(name, 0) + 1


class QueryEngine:
    """Answers "where is user X?" and "how do I reach user X?"."""

    def __init__(
        self,
        registry: UserRegistry,
        location_db: LocationDatabase,
        paths: AllPairsPaths,
    ) -> None:
        self.registry = registry
        self.location_db = location_db
        self.paths = paths
        self.stats = QueryStats()

    def _target_device(self, querier_userid: str, target_username: str) -> BDAddr:
        """Count one location query; the target's device once §2's checks pass."""
        stats = self.stats
        stats.location_queries += 1
        try:
            return self.registry.check_query_allowed(querier_userid, target_username).device
        except BIPSError as error:
            stats.location_denied += 1
            stats.note_error(error)
            raise

    def locate(self, querier_userid: str, target_username: str) -> Optional[str]:
        """The paper's spatio-temporal query: the target's current piconet.

        Returns the room id, or None when the target is logged in but
        currently untracked (e.g. walking a corridor between piconets).

        Raises:
            NotLoggedInError: querier or target has no live session.
            AccessDeniedError: the target's access rights exclude the querier.
            UnknownUserError: no such target username.
        """
        room = self.location_db.current_room(
            self._target_device(querier_userid, target_username)
        )
        if room is None:
            self.stats.location_unknown += 1
        return room

    def locate_full(
        self, querier_userid: str, target_username: str, now: int
    ) -> tuple[Optional[str], bool]:
        """:meth:`locate` plus a staleness verdict at tick ``now``.

        The second element is True when the answer comes from an
        attribution the database has not had confirmed within its
        staleness horizon — e.g. the covering workstation crashed.  The
        answer is still the best available, it just stops pretending to
        be fresh (graceful degradation, ``docs/fault-injection.md``).
        """
        device = self._target_device(querier_userid, target_username)
        room = self.location_db.current_room(device)
        if room is None:
            self.stats.location_unknown += 1
        stale = self.location_db.is_stale(device, now)
        if stale:
            self.stats.location_stale += 1
        return room, stale

    def locate_at(
        self, querier_userid: str, target_username: str, tick: int
    ) -> Optional[str]:
        """The temporal half of §2's spatio-temporal query.

        Where was the target at simulated time ``tick``, according to
        the database history?  Subject to the same access-rights checks
        as :meth:`locate`; None when the position was unknown then.
        """
        room = self.location_db.room_at(
            self._target_device(querier_userid, target_username), tick
        )
        if room is None:
            self.stats.location_unknown += 1
        return room

    def navigate(self, querier_userid: str, target_username: str) -> Optional[PathResult]:
        """Shortest path from the querier's room to the target's room.

        Returns None when either endpoint is currently untracked.

        Raises the same errors as :meth:`locate`.
        """
        stats = self.stats
        stats.path_queries += 1
        try:
            target = self.registry.check_query_allowed(querier_userid, target_username)
        except BIPSError as error:
            stats.path_denied += 1
            stats.note_error(error)
            raise
        target_room = self.location_db.current_room(target.device)
        if target_room is None:
            stats.location_unknown += 1
            return None
        # The checks above found the querier logged in.
        querier_room = self.location_db.current_room(self.registry.device_of(querier_userid))
        if querier_room is None:
            return None
        return self.paths.path(querier_room, target_room)
