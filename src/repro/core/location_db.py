"""The central location database.

"Once a handheld device has been enrolled, its position is communicated
to the central server machine where the position is stored in a
database for successive lookups" (§2).  The granule is the room; each
device has a current room (or none) plus a bounded movement history so
the spatio-temporal queries of the paper — and post-hoc accuracy
analysis — can be answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bluetooth.address import BDAddr
from repro.sim.hotpath import hot_path


@dataclass(frozen=True)
class LocationRecord:
    """Where a device is (or was): room + the update interval.

    ``last_confirmed_tick`` is the most recent tick at which *any*
    workstation confirmed this attribution — refreshed by same-room
    presences that change nothing else.  It is what staleness marking
    keys on: a record whose confirmation is old may describe a device
    whose workstation crashed, so queries degrade gracefully instead of
    asserting certainty (see ``docs/fault-injection.md``).
    """

    device: BDAddr
    room_id: Optional[str]
    since_tick: int
    last_confirmed_tick: int = -1

    def __post_init__(self) -> None:
        if self.last_confirmed_tick < 0:
            object.__setattr__(self, "last_confirmed_tick", self.since_tick)

    @property
    def known(self) -> bool:
        """Whether the device's position is currently known."""
        return self.room_id is not None


@dataclass(frozen=True)
class LocationEvent:
    """One database transition, kept in per-device history."""

    tick: int
    room_id: Optional[str]  # None = became unknown (absence)
    source_workstation: str


class LocationDatabase:
    """Current positions and movement history of all tracked devices."""

    def __init__(
        self,
        history_limit: int = 1000,
        staleness_horizon_ticks: Optional[int] = None,
    ) -> None:
        if history_limit <= 0:
            raise ValueError(f"history_limit must be positive: {history_limit}")
        if staleness_horizon_ticks is not None and staleness_horizon_ticks <= 0:
            raise ValueError(
                f"staleness horizon must be positive: {staleness_horizon_ticks}"
            )
        # Written only through ``_write``, which keeps ``_known`` (the
        # number of records with a room) exact so ``known_count`` is O(1).
        self._current: dict[BDAddr, LocationRecord] = {}
        self._known = 0
        self._history: dict[BDAddr, list[LocationEvent]] = {}
        self._history_limit = history_limit
        self.staleness_horizon_ticks = staleness_horizon_ticks
        # An absence that arrives while its device is attributed to a
        # *different* room cannot be applied, but it must not be
        # forgotten either: a delayed presence for that room carrying an
        # older tick would otherwise resurrect a user who already left.
        # Keyed by device, then room; cleared by any newer presence there.
        self._absence_horizon: dict[BDAddr, dict[str, int]] = {}
        self.updates_applied = 0
        self.stale_absences_ignored = 0
        self.stale_presences_ignored = 0
        self.presences_reconfirmed = 0
        self.absence_tombstones = 0
        self.presences_superseded = 0

    # -- updates ---------------------------------------------------------------

    @hot_path
    def apply_presence(
        self, device: BDAddr, room_id: str, tick: int, workstation_id: str
    ) -> bool:
        """A workstation saw ``device`` in ``room_id``.

        Returns True if the database changed.  A presence for the room
        the device is already in refreshes nothing, and a presence
        carrying a tick *older* than the current record is a delayed
        LAN delivery — applying it would overwrite fresher state with
        stale state (workstations only report deltas, but deliveries
        can race and reorder over the LAN).
        """
        horizons = self._absence_horizon.get(device)
        if horizons is not None:
            horizon = horizons.get(room_id)
            if horizon is not None:
                if tick <= horizon:
                    # A departure from this room with a tick at least
                    # this fresh was already reported: the presence is
                    # the late half of a reordered pair and must not
                    # resurrect.
                    self.presences_superseded += 1
                    return False
                del horizons[room_id]
                if not horizons:
                    del self._absence_horizon[device]
        record = self._current.get(device)
        if record is not None and tick < record.last_confirmed_tick:
            # Older than the newest confirmation of the current state:
            # a delayed LAN delivery.  Comparing against the *confirmed*
            # tick (not just since_tick) also rejects a cross-room claim
            # that predates a refresh — we have fresher evidence the
            # device was still where we think it is.
            self.stale_presences_ignored += 1
            return False
        if record is not None and record.room_id == room_id:
            # Same room, fresher tick: the attribution is unchanged but
            # its *confirmation* is renewed, which is exactly what the
            # periodic refresh traffic exists to do.
            if tick > record.last_confirmed_tick:
                self._write(
                    device,
                    LocationRecord(
                        device=device,
                        room_id=room_id,
                        since_tick=record.since_tick,
                        last_confirmed_tick=tick,
                    ),
                )
                self.presences_reconfirmed += 1
            return False
        self._write(device, LocationRecord(device=device, room_id=room_id, since_tick=tick))
        self._append_history(device, LocationEvent(tick, room_id, workstation_id))
        self.updates_applied += 1
        return True

    @hot_path
    def apply_absence(
        self, device: BDAddr, room_id: str, tick: int, workstation_id: str
    ) -> bool:
        """A workstation reports ``device`` left ``room_id``.

        Only clears the position if the device is still attributed to
        that room *and* the absence is not older than the attribution —
        an absence that raced with a presence from the device's *new*
        room (or was delayed past a fresher update for the same room)
        must not erase the fresher information.
        """
        record = self._current.get(device)
        if record is None:
            # Absence for a device we never saw: the matching presence
            # is late (or lost).  Record a *tombstone* — an unknown
            # position stamped with the absence tick — so the delayed
            # presence cannot arrive afterwards and resurrect a user who
            # already left.  The caller still sees no position change.
            self._write(device, LocationRecord(device=device, room_id=None, since_tick=tick))
            self._append_history(device, LocationEvent(tick, None, workstation_id))
            self.absence_tombstones += 1
            return False
        if record.room_id != room_id or tick < record.last_confirmed_tick:
            if record.room_id != room_id:
                # Cannot apply (the device is attributed elsewhere), but
                # remember the departure so the matching presence, if it
                # arrives late, cannot re-attribute the room.
                horizons = self._absence_horizon.get(device)
                if horizons is None:
                    horizons = self._absence_horizon[device] = {}
                if tick > horizons.get(room_id, -1):
                    horizons[room_id] = tick
            self.stale_absences_ignored += 1
            return False
        self._write(device, LocationRecord(device=device, room_id=None, since_tick=tick))
        self._append_history(device, LocationEvent(tick, None, workstation_id))
        self.updates_applied += 1
        return True

    def _write(self, device: BDAddr, record: Optional[LocationRecord]) -> None:
        """Set the current record of ``device``, or drop it for ``None``.

        The one writer of ``_current``: adjusting ``_known`` here, by the
        replaced and the new record, keeps ``known_count`` exact without
        walking every device.
        """
        previous = self._current.get(device)
        if previous is not None and previous.room_id is not None:
            self._known -= 1
        if record is None:
            self._current.pop(device, None)
        else:
            self._current[device] = record
            if record.room_id is not None:
                self._known += 1

    def _append_history(self, device: BDAddr, event: LocationEvent) -> None:
        """Insert keeping history tick-ordered.

        ``room_at`` replays "last event at or before tick", which is
        only meaningful over a sorted history; an out-of-order LAN
        delivery that survives the staleness guards (e.g. a presence
        for a device the database has not seen yet) must still land in
        tick position, not at the tail.
        """
        history = self._history.setdefault(device, [])
        position = len(history)
        while position > 0 and history[position - 1].tick > event.tick:
            position -= 1
        history.insert(position, event)
        if len(history) > self._history_limit:
            del history[: len(history) - self._history_limit]

    def forget_device(self, device: BDAddr) -> None:
        """Drop all state for a device (user logged out)."""
        self._write(device, None)
        self._history.pop(device, None)
        self._absence_horizon.pop(device, None)

    # -- queries ---------------------------------------------------------------

    def current_room(self, device: BDAddr) -> Optional[str]:
        """Room the device is in, or None if unknown/never seen."""
        record = self._current.get(device)
        return record.room_id if record is not None else None

    def record_of(self, device: BDAddr) -> Optional[LocationRecord]:
        """Full current record (None if never seen)."""
        return self._current.get(device)

    def history_of(self, device: BDAddr) -> list[LocationEvent]:
        """Movement history, oldest first."""
        return list(self._history.get(device, ()))

    def occupants_of(self, room_id: str) -> list[BDAddr]:
        """Devices currently attributed to ``room_id``."""
        return [
            record.device
            for record in self._current.values()
            if record.room_id == room_id
        ]

    def room_at(self, device: BDAddr, tick: int) -> Optional[str]:
        """Where the database believed the device was at ``tick``.

        Replays history: the room of the last event at or before
        ``tick``.  This is the temporal half of the paper's
        spatio-temporal query and what the accuracy analysis samples.
        """
        history = self._history.get(device)
        if not history:
            return None
        room: Optional[str] = None
        for event in history:
            if event.tick > tick:
                break
            room = event.room_id
        return room

    # -- staleness ---------------------------------------------------------------

    def is_stale(self, device: BDAddr, now: int) -> bool:
        """Whether the device's attribution has outlived the horizon.

        Only a *known* position can be stale: "we have not heard about
        this device for a while" degrades a claimed room, not an already
        unknown one.  Without a configured horizon nothing is stale.
        """
        if self.staleness_horizon_ticks is None:
            return False
        record = self._current.get(device)
        if record is None or not record.known:
            return False
        return now - record.last_confirmed_tick > self.staleness_horizon_ticks

    def stale_devices(self, now: int) -> list[BDAddr]:
        """Devices whose known position is stale at ``now``."""
        return [
            record.device
            for record in self._current.values()
            if self.is_stale(record.device, now)
        ]

    @property
    def tracked_count(self) -> int:
        """Devices with any state in the database."""
        return len(self._current)

    @property
    def known_count(self) -> int:
        """Devices whose room is currently known."""
        return self._known
