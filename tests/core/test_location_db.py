"""Tests for the central location database."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.core.location_db import LocationDatabase

DEV = BDAddr(0x42)


@pytest.fixture
def db() -> LocationDatabase:
    return LocationDatabase()


class TestPresence:
    def test_presence_sets_room(self, db):
        assert db.apply_presence(DEV, "lab", 100, "ws:lab")
        assert db.current_room(DEV) == "lab"
        assert db.record_of(DEV).since_tick == 100

    def test_duplicate_presence_is_noop(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        assert not db.apply_presence(DEV, "lab", 200, "ws:lab")
        assert db.record_of(DEV).since_tick == 100
        assert db.updates_applied == 1

    def test_room_change(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        assert db.apply_presence(DEV, "office", 200, "ws:office")
        assert db.current_room(DEV) == "office"

    def test_absence_clears_room(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        assert db.apply_absence(DEV, "lab", 200, "ws:lab")
        assert db.current_room(DEV) is None
        assert db.record_of(DEV) is not None  # device still known

    def test_stale_absence_ignored(self, db):
        """An absence from the old room must not erase the new room."""
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        db.apply_presence(DEV, "office", 200, "ws:office")
        assert not db.apply_absence(DEV, "lab", 210, "ws:lab")
        assert db.current_room(DEV) == "office"
        assert db.stale_absences_ignored == 1

    def test_absence_for_unknown_device_ignored(self, db):
        assert not db.apply_absence(DEV, "lab", 100, "ws:lab")

    def test_counts(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        db.apply_presence(BDAddr(0x43), "office", 100, "ws:office")
        db.apply_absence(DEV, "lab", 200, "ws:lab")
        assert db.tracked_count == 2
        assert db.known_count == 1


class TestHistory:
    def test_history_records_transitions(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        db.apply_presence(DEV, "office", 200, "ws:office")
        db.apply_absence(DEV, "office", 300, "ws:office")
        rooms = [event.room_id for event in db.history_of(DEV)]
        assert rooms == ["lab", "office", None]

    def test_history_limit(self):
        db = LocationDatabase(history_limit=3)
        for i in range(10):
            db.apply_presence(DEV, f"room-{i}", i * 100, "ws")
        history = db.history_of(DEV)
        assert len(history) == 3
        assert history[-1].room_id == "room-9"

    def test_room_at_replays_history(self, db):
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        db.apply_presence(DEV, "office", 200, "ws:office")
        db.apply_absence(DEV, "office", 300, "ws:office")
        assert db.room_at(DEV, 50) is None
        assert db.room_at(DEV, 100) == "lab"
        assert db.room_at(DEV, 250) == "office"
        assert db.room_at(DEV, 400) is None

    def test_room_at_unknown_device(self, db):
        assert db.room_at(DEV, 100) is None

    def test_invalid_history_limit(self):
        with pytest.raises(ValueError):
            LocationDatabase(history_limit=0)


class TestOutOfOrderDelivery:
    """Regression: delayed LAN deliveries must not corrupt the database.

    Workstations report deltas over the LAN and deliveries can race and
    reorder.  Before the tick guards, a delayed presence overwrote
    fresher state with stale state, and a delayed absence for the
    *current* room erased a newer attribution; history also appended at
    the tail regardless of tick, breaking ``room_at`` replay.
    """

    def test_stale_presence_does_not_overwrite_fresh_room(self, db):
        db.apply_presence(DEV, "office", 200, "ws:office")
        assert not db.apply_presence(DEV, "lab", 150, "ws:lab")
        assert db.current_room(DEV) == "office"
        assert db.record_of(DEV).since_tick == 200
        assert db.stale_presences_ignored == 1

    def test_stale_presence_leaves_history_untouched(self, db):
        db.apply_presence(DEV, "office", 200, "ws:office")
        db.apply_presence(DEV, "lab", 150, "ws:lab")
        assert [e.room_id for e in db.history_of(DEV)] == ["office"]

    def test_delayed_absence_same_room_ignored(self, db):
        # Device re-entered the lab at 300; an absence stamped 250
        # (from its earlier exit) arrives late.
        db.apply_presence(DEV, "lab", 300, "ws:lab")
        assert not db.apply_absence(DEV, "lab", 250, "ws:lab")
        assert db.current_room(DEV) == "lab"
        assert db.stale_absences_ignored == 1

    def test_equal_tick_updates_still_apply(self, db):
        # The guard is strictly "older than": a same-tick transition
        # (presence then absence in one tick) is legal.
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        assert db.apply_absence(DEV, "lab", 100, "ws:lab")
        assert db.current_room(DEV) is None

    def test_history_insertion_keeps_tick_order(self, db):
        # A presence for a room the device was *not* in survives the
        # staleness guard only if its tick is fresh — but two different
        # devices' workstations can interleave; simulate a survivor
        # landing between recorded ticks via absence after re-presence.
        db.apply_presence(DEV, "lab", 100, "ws:lab")
        db.apply_presence(DEV, "office", 300, "ws:office")
        db.apply_presence(DEV, "lounge", 400, "ws:lounge")
        ticks = [e.tick for e in db.history_of(DEV)]
        assert ticks == sorted(ticks)

    def test_room_at_consistent_after_reordered_stream(self, db):
        events = [
            ("presence", "lab", 100),
            ("presence", "office", 300),
            ("absence", "office", 400),
        ]
        replayed = LocationDatabase()
        for kind, room, tick in events:
            if kind == "presence":
                replayed.apply_presence(DEV, room, tick, "ws")
            else:
                replayed.apply_absence(DEV, room, tick, "ws")
        # Deliver the same stream with the first two swapped; the
        # guards must converge on the same final attribution.
        db.apply_presence(DEV, "office", 300, "ws")
        db.apply_presence(DEV, "lab", 100, "ws")
        db.apply_absence(DEV, "office", 400, "ws")
        assert db.current_room(DEV) == replayed.current_room(DEV)
        assert db.room_at(DEV, 500) == replayed.room_at(DEV, 500)

    def test_rejection_counters_do_not_count_applied_updates(self, db):
        db.apply_presence(DEV, "lab", 100, "ws")
        db.apply_presence(DEV, "office", 200, "ws")
        db.apply_absence(DEV, "office", 300, "ws")
        assert db.stale_presences_ignored == 0
        assert db.stale_absences_ignored == 0
        assert db.updates_applied == 3


class TestQueries:
    def test_occupants_of(self, db):
        db.apply_presence(BDAddr(1), "lab", 100, "ws")
        db.apply_presence(BDAddr(2), "lab", 100, "ws")
        db.apply_presence(BDAddr(3), "office", 100, "ws")
        assert sorted(a.value for a in db.occupants_of("lab")) == [1, 2]

    def test_never_seen_device(self, db):
        assert db.current_room(DEV) is None
        assert db.record_of(DEV) is None
