"""The BIPS central server.

One machine on the LAN holds the user registry, the location database,
and the precomputed shortest paths, and answers every message type of
the BIPS protocol (§2).  The server is a pure message-driven component:
workstations push presence deltas, user sessions send queries, and
responses flow back to the sending endpoint.  Login binds a userid to
its BD_ADDR by a direct call on :attr:`BIPSServer.registry`.

A query is answered by lookup (§2): the registry checks that the target
is logged in and that the querier may ask, then the location database
gives the target's piconet and the precomputed paths the way there.  A
direct-call surface (:meth:`locate`, :meth:`navigate`,
:meth:`locate_at_seconds`) answers the same way synchronously for tools
and examples.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.building.floorplan import FloorPlan
from repro.lan.messages import (
    LocationQuery,
    LocationResponse,
    PathQuery,
    PathResponse,
    PresenceInvalidation,
    PresenceUpdate,
    WorkstationHello,
)
from repro.lan.transport import LANTransport, UnknownEndpointError
from repro.sim.clock import ticks_from_seconds
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel

from .errors import BIPSError
from .location_db import LocationDatabase
from .pathfinding import AllPairsPaths, PathResult
from .registry import UserRegistry


class BIPSServer:
    """The central server machine of the BIPS architecture."""

    def __init__(
        self,
        kernel: Kernel,
        lan: LANTransport,
        plan: FloorPlan,
        staleness_horizon_ticks: Optional[int] = None,
    ) -> None:
        plan.validate()
        self.kernel = kernel
        self.lan = lan
        self.plan = plan
        self.endpoint = "server"
        self.registry = UserRegistry()
        self.location_db = LocationDatabase(staleness_horizon_ticks=staleness_horizon_ticks)
        # Off-line precomputation (§2): all shortest paths up front.
        self.paths = AllPairsPaths.from_floorplan(plan)
        self._workstation_rooms: dict[str, str] = {}
        # Reverse index: room -> the workstation invalidations go to,
        # the earliest-registered one when several claim a room.
        self._room_workstations: dict[str, str] = {}
        self.presence_updates_received = 0
        self.unknown_workstation_updates = 0
        self.invalidations_sent = 0
        self.browned_out = False
        self.brownouts = 0
        # Plain counts, per kind; ``finalize_metrics`` folds them.
        self.queries_served = {"location": 0, "path": 0}
        self.queries_failed = {"location": 0, "path": 0}
        self.stale_answers = 0
        # Lag in ticks -> count: delta push (workstation decision to
        # database update) and LAN query (request sent to answer).
        self.push_lags: dict[int, int] = {}
        self.query_latencies: dict[int, int] = {}
        self._spans = kernel.spans
        lan.register(self.endpoint, self._on_message)

    # -- fault injection ---------------------------------------------------------

    def set_brownout(self, active: bool) -> None:
        """Inject (or clear) a central-server brownout.

        While browned out the server's LAN endpoint is off the wire:
        presence deltas and queries sent to it drop silently (reliable
        senders keep retrying with backoff and bridge short brownouts).
        The database itself survives — a brownout is the machine
        overloaded or rebooting, not losing its disk.
        """
        if active == self.browned_out:
            return
        self.browned_out = active
        if active:
            self.brownouts += 1
            self.lan.unregister(self.endpoint)
        else:
            self.lan.register(self.endpoint, self._on_message)
        if self._spans is not None:
            self._spans.instant(
                "core.server_brownout", "core", self.kernel.now, active=active
            )

    # -- message handling -------------------------------------------------------

    def _on_message(self, source: str, message: Any) -> None:
        if isinstance(message, PresenceUpdate):
            self._handle_presence(message)
        elif isinstance(message, WorkstationHello):
            self._bind_workstation(message.workstation_id, message.room_id)
        elif isinstance(message, LocationQuery):
            self._handle_location_query(source, message)
        elif isinstance(message, PathQuery):
            self._handle_path_query(source, message)
        # Unknown message types are ignored (forward compatibility).

    def _bind_workstation(self, workstation_id: str, room_id: str) -> None:
        """Record that ``workstation_id`` serves ``room_id``.

        A newcomer is last in registration order, so it only claims a
        room nobody serves yet.  A workstation moving to another room
        can change who wins several rooms, so the index is rebuilt;
        hellos are rare.
        """
        previous = self._workstation_rooms.get(workstation_id)
        self._workstation_rooms[workstation_id] = room_id
        if previous is None:
            self._room_workstations.setdefault(room_id, workstation_id)
        elif previous != room_id:
            self._room_workstations.clear()
            for ws_id, ws_room in self._workstation_rooms.items():
                self._room_workstations.setdefault(ws_room, ws_id)

    def _handle_presence(self, message: PresenceUpdate) -> None:
        self.presence_updates_received += 1
        # One read per delta: the apply and the invalidation stamp the
        # same tick.
        now = self.kernel.now
        lag = now - message.sent_tick
        self.push_lags[lag] = self.push_lags.get(lag, 0) + 1
        room = self._workstation_rooms.get(message.workstation_id)
        if room is None and message.room_id is not None:
            # The hello was lost; learn the mapping from the update.
            room = message.room_id
            self._bind_workstation(message.workstation_id, room)
        if room is None:
            self.unknown_workstation_updates += 1
            return
        spans = self._spans
        if spans is None:
            self._apply_presence(message, room, now)
            return
        span = spans.begin(
            "core.db_apply",
            "core",
            now,
            device=str(message.device),
            room=room,
            present=message.present,
            lag_ticks=lag,
        )
        prev = spans.push(span)
        try:
            self._apply_presence(message, room, now)
        finally:
            spans.pop(prev)
            spans.end(span, now)

    @hot_path
    def _apply_presence(self, message: PresenceUpdate, room: str, now: int) -> None:
        """Apply one delta to the location DB (split out for the span)."""
        if message.present:
            previous = self.location_db.record_of(message.device)
            self.location_db.apply_presence(
                message.device, room, now, message.workstation_id
            )
            if (
                previous is not None
                and previous.room_id is not None
                and previous.room_id != room
            ):
                self._invalidate_previous_room(
                    message.device, previous.room_id, room, now
                )
        else:
            self.location_db.apply_absence(
                message.device, room, now, message.workstation_id
            )

    def _invalidate_previous_room(
        self, device, previous_room: str, new_room: str, now: int
    ) -> None:
        """Tell the previous room's workstation the device moved on."""
        workstation_id = self._room_workstations.get(previous_room)
        if workstation_id is None:
            return
        try:
            self.lan.send(
                self.endpoint,
                workstation_id,
                PresenceInvalidation(sent_tick=now, device=device, new_room_id=new_room),
            )
        except UnknownEndpointError:
            # The workstation is gone (crashed / never wired up); its
            # tracker state dies with it, so there is nothing to fix.
            return
        self.invalidations_sent += 1

    def _handle_location_query(self, source: str, message: LocationQuery) -> None:
        try:
            device = self.registry.check_query_allowed(
                message.querier_userid, message.target_username
            ).device
        except BIPSError as error:
            response = LocationResponse(
                sent_tick=self.kernel.now,
                query_id=message.query_id,
                ok=False,
                reason=str(error),
            )
        else:
            # An answer past the staleness horizon is still the best
            # available; it only stops claiming to be fresh.
            stale = self.location_db.is_stale(device, self.kernel.now)
            response = LocationResponse(
                sent_tick=self.kernel.now,
                query_id=message.query_id,
                ok=True,
                room_id=self.location_db.current_room(device),
                stale=stale,
            )
            self.stale_answers += stale
        self._note_query("location", message, response.ok)
        self.lan.send(self.endpoint, source, response)

    def _handle_path_query(self, source: str, message: PathQuery) -> None:
        try:
            path = self._path(message.querier_userid, message.target_username)
        except BIPSError as error:
            response = PathResponse(
                sent_tick=self.kernel.now,
                query_id=message.query_id,
                ok=False,
                reason=str(error),
            )
        else:
            response = PathResponse(
                sent_tick=self.kernel.now,
                query_id=message.query_id,
                ok=path is not None,
                rooms=path.rooms if path is not None else (),
                total_distance_m=path.total_distance_m if path is not None else 0.0,
                reason="" if path is not None else "position currently unknown",
            )
        self._note_query("path", message, response.ok)
        self.lan.send(self.endpoint, source, response)

    def _note_query(self, kind: str, message, ok: bool) -> None:
        """Counts, latency and the ``core.query`` span for one LAN query.

        Query latency here is the server-side view: request send to
        answer computed (the response's own LAN hop is accounted by the
        transport's delivery histogram).
        """
        self.queries_served[kind] += 1
        if not ok:
            self.queries_failed[kind] += 1
        lag = self.kernel.now - message.sent_tick
        self.query_latencies[lag] = self.query_latencies.get(lag, 0) + 1
        if self._spans is not None:
            self._spans.instant(
                "core.query", "core", self.kernel.now, kind=kind, ok=ok, lag_ticks=lag
            )

    def _path(self, querier_userid: str, target_username: str) -> Optional[PathResult]:
        """Shortest path from the querier's room to the target's room.

        None when either endpoint is currently untracked.  Raises what
        :meth:`UserRegistry.check_query_allowed` raises.
        """
        current_room = self.location_db.current_room
        target_room = current_room(
            self.registry.check_query_allowed(querier_userid, target_username).device
        )
        if target_room is None:
            return None
        # The checks above found the querier logged in.
        querier_room = current_room(self.registry.session_of(querier_userid).device)
        if querier_room is None:
            return None
        return self.paths.path(querier_room, target_room)

    # -- direct-call surface ------------------------------------------------------

    @hot_path
    def locate(self, querier_userid: str, target_username: str) -> Optional[str]:
        """The paper's spatio-temporal query: the target's current piconet.

        Returns the room id, or None when the target is logged in but
        currently untracked (e.g. walking a corridor between piconets).

        Raises:
            NotLoggedInError: querier or target has no live session.
            AccessDeniedError: the target's access rights exclude the querier.
            UnknownUserError: no such target username.
        """
        self.queries_served["location"] += 1
        room = self.location_db.current_room(
            self.registry.check_query_allowed(querier_userid, target_username).device
        )
        if self._spans is not None:
            # Direct calls have no transit, hence no lag.
            self._spans.instant(
                "core.query", "core", self.kernel.now,
                kind="location", ok=room is not None, lag_ticks=0,
            )
        return room

    @hot_path
    def navigate(self, querier_userid: str, target_username: str) -> Optional[PathResult]:
        """Synchronous navigation query; None when either endpoint is untracked.

        Raises the same errors as :meth:`locate`.
        """
        self.queries_served["path"] += 1
        path = self._path(querier_userid, target_username)
        if self._spans is not None:
            self._spans.instant(
                "core.query", "core", self.kernel.now,
                kind="path", ok=path is not None, lag_ticks=0,
            )
        return path

    @hot_path
    def locate_at_seconds(
        self, querier_userid: str, target_username: str, at_seconds: float
    ) -> Optional[str]:
        """The temporal half of §2's query: where was the target at ``at_seconds``?

        Subject to the same checks as :meth:`locate`; None when the
        position was unknown then.  Not counted as a served query.
        """
        return self.location_db.room_at(
            self.registry.check_query_allowed(querier_userid, target_username).device,
            ticks_from_seconds(at_seconds),
        )

    def room_of_workstation(self, workstation_id: str) -> Optional[str]:
        """Which room a workstation registered for."""
        return self._workstation_rooms.get(workstation_id)

    @property
    def workstation_count(self) -> int:
        """Number of workstations that have said hello."""
        return len(self._workstation_rooms)
