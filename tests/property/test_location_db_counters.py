"""Property tests: the location database's maintained counters and horizons.

``known_count`` is a counter kept up to date by every write rather than
a recount, and the absence horizons are stored per device, then room.
Random interleavings of presences and absences — over few devices,
rooms and ticks, so that
tombstones, stale and superseded deltas and same-room refreshes are
all frequent — must leave both exactly where a brute-force recount
and a flat ``(device, room)`` reference model put them, after every
step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluetooth.address import BDAddr
from repro.core.location_db import LocationDatabase

DEVICES = (BDAddr(0x00AA01000001), BDAddr(0x00AA01000002), BDAddr(0x00AA01000003))
ROOMS = ("lab-1", "lab-2", "library")

operations = st.tuples(
    st.sampled_from(("presence", "absence")),
    st.sampled_from(DEVICES),
    st.sampled_from(ROOMS),
    st.integers(min_value=0, max_value=30),
)


class HorizonModel:
    """The absence horizons as a flat ``(device, room) -> tick`` map."""

    def __init__(self) -> None:
        self.horizons: dict[tuple[BDAddr, str], int] = {}

    def presence(self, device: BDAddr, room: str, tick: int) -> bool:
        """Returns True if the presence is superseded by a departure."""
        horizon = self.horizons.get((device, room))
        if horizon is None:
            return False
        if tick <= horizon:
            return True
        del self.horizons[(device, room)]
        return False

    def absence(self, db: LocationDatabase, device: BDAddr, room: str, tick: int) -> None:
        record = db.record_of(device)
        if record is not None and record.room_id != room:
            key = (device, room)
            if tick > self.horizons.get(key, -1):
                self.horizons[key] = tick


def _flat_horizons(db: LocationDatabase) -> dict[tuple[BDAddr, str], int]:
    return {
        (device, room): tick
        for device, rooms in db._absence_horizon.items()
        for room, tick in rooms.items()
    }


def _check(db: LocationDatabase, model: HorizonModel) -> None:
    records = [db.record_of(device) for device in DEVICES]
    assert db.known_count == sum(
        1 for record in records if record is not None and record.room_id is not None
    )
    assert db.tracked_count == len(db._current)
    assert db.tracked_count == sum(1 for record in records if record is not None)
    assert _flat_horizons(db) == model.horizons
    # No empty per-device maps linger after their last room is cleared.
    assert all(db._absence_horizon.values())


@given(st.lists(operations, max_size=80))
@settings(max_examples=300)
def test_counters_and_horizons_match_a_recount(sequence):
    db = LocationDatabase()
    model = HorizonModel()
    for kind, device, room, tick in sequence:
        if kind == "presence":
            superseded = db.presences_superseded
            expected = model.presence(device, room, tick)
            db.apply_presence(device, room, tick, f"ws:{room}")
            assert db.presences_superseded == superseded + expected
        else:
            model.absence(db, device, room, tick)
            db.apply_absence(device, room, tick, f"ws:{room}")
        _check(db, model)


def test_every_write_path_is_exercised():
    # A fixed walk through each kind of write, checked after every step.
    db = LocationDatabase()
    model = HorizonModel()
    a, b = DEVICES[:2]
    steps = [
        ("absence", a, "lab-1", 5),  # tombstone
        ("presence", a, "lab-1", 3),  # stale: older than the tombstone
        ("presence", a, "lab-1", 6),  # new room
        ("presence", a, "lab-1", 9),  # same-room reconfirm
        ("absence", a, "lab-2", 12),  # elsewhere: horizon recorded
        ("presence", a, "lab-2", 11),  # superseded by that horizon
        ("presence", b, "library", 1),
        ("absence", b, "library", 4),  # clears the room
        ("presence", a, "lab-2", 13),  # newer: clears the horizon
        ("absence", b, "lab-1", 8),  # b unknown: horizon for lab-1
    ]
    for kind, device, room, tick in steps:
        if kind == "presence":
            model.presence(device, room, tick)
            db.apply_presence(device, room, tick, f"ws:{room}")
        else:
            model.absence(db, device, room, tick)
            db.apply_absence(device, room, tick, f"ws:{room}")
        _check(db, model)
    assert db.absence_tombstones == 1
    assert db.stale_presences_ignored == 1
    assert db.presences_reconfirmed == 1
    assert db.presences_superseded == 1
    assert db.updates_applied == 4
    # b stays tracked, its room unknown.
    assert (db.known_count, db.tracked_count) == (1, 2)
