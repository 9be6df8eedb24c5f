"""Messages exchanged over the BIPS Ethernet LAN.

The protocol between workstations and the central server is small (§2):
presence deltas flow up, and queries flow between user sessions and the
server.  Messages are plain frozen dataclasses; the transport treats
them as opaque payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bluetooth.address import BDAddr


@dataclass(frozen=True)
class Message:
    """Base class: every LAN message knows when it was sent."""

    sent_tick: int


# -- workstation -> server -------------------------------------------------


@dataclass(frozen=True)
class PresenceUpdate(Message):
    """A workstation reports a new presence or absence in its piconet.

    Workstations send these *only on change* — "a workstation updates
    the central location database only when it reveals a new presence or
    a new absence" (§2) — which is what keeps the LAN load low.

    ``room_id`` piggybacks the workstation → room mapping so that a lost
    :class:`WorkstationHello` cannot strand a workstation's updates
    forever; None models a pre-fix sender (the server then relies on
    the hello alone).
    """

    workstation_id: str
    device: BDAddr
    present: bool
    room_id: Optional[str] = None


@dataclass(frozen=True)
class WorkstationHello(Message):
    """A workstation announces itself (room id) at startup."""

    workstation_id: str
    room_id: str


# -- user session -> server ----------------------------------------------


@dataclass(frozen=True)
class LocationQuery(Message):
    """"Where is user X?" — the paper's spatio-temporal query.

    ``querier_userid`` is checked against the access rights of the
    target before any location is disclosed.
    """

    querier_userid: str
    target_username: str
    query_id: int = 0


@dataclass(frozen=True)
class PathQuery(Message):
    """"How do I reach user X from my current position?"."""

    querier_userid: str
    target_username: str
    query_id: int = 0


# -- server -> workstations --------------------------------------------------


@dataclass(frozen=True)
class PresenceInvalidation(Message):
    """The server tells a workstation that a device it believes present
    has been attributed to a different piconet.

    Without this, delta reporting has a consistency hole: a device that
    briefly leaves a room (too briefly for the absence hysteresis to
    fire) and later returns is still "present" in the old workstation's
    tracker, so no new delta is ever sent and the central database
    never re-attributes the device.  On every location change the
    server invalidates the previous room's tracker; if the device
    really is back there, the next inquiry window re-discovers it and a
    fresh presence delta flows.
    """

    device: BDAddr
    new_room_id: str


# -- server -> clients ------------------------------------------------------


@dataclass(frozen=True)
class LocationResponse(Message):
    """Answer to a :class:`LocationQuery`."""

    query_id: int
    ok: bool
    room_id: Optional[str] = None
    reason: str = ""
    #: The answer is served from an attribution older than the server's
    #: staleness horizon (covering workstation silent — possibly down).
    stale: bool = False


@dataclass(frozen=True)
class PathResponse(Message):
    """Answer to a :class:`PathQuery`: the room-by-room shortest path."""

    query_id: int
    ok: bool
    rooms: tuple[str, ...] = field(default=())
    total_distance_m: float = 0.0
    reason: str = ""
