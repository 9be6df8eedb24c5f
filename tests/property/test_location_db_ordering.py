"""Property tests: the location database under arbitrary LAN reordering.

Deltas race over the LAN: a chaos run can deliver presences and
absences late, duplicated, and out of order.  Whatever interleaving
arrives, the database must uphold two guarantees:

* ``last_confirmed_tick`` never regresses — a delayed delivery cannot make
  an attribution look *fresher-confirmed-earlier* than it already is;
* a departed (or never-successfully-reported) user is never
  resurrected by a delayed presence that predates their departure.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluetooth.address import BDAddr
from repro.core.location_db import LocationDatabase

DEVICE = BDAddr(0x00AA01000001)
ROOMS = ("lab-1", "lab-2", "library")

#: One delta as it crosses the LAN: kind, origin room, workstation tick.
deltas = st.tuples(
    st.sampled_from(("presence", "absence")),
    st.sampled_from(ROOMS),
    st.integers(min_value=0, max_value=10_000),
)


def _apply(db: LocationDatabase, delta) -> None:
    kind, room, tick = delta
    if kind == "presence":
        db.apply_presence(DEVICE, room, tick, f"ws:{room}")
    else:
        db.apply_absence(DEVICE, room, tick, f"ws:{room}")


@given(st.lists(deltas, max_size=60))
@settings(max_examples=200)
def test_last_confirmed_never_regresses(sequence):
    db = LocationDatabase()
    high_water = None
    for delta in sequence:
        _apply(db, delta)
        record = db.record_of(DEVICE)
        confirmed = record.last_confirmed_tick if record is not None else None
        if confirmed is not None and high_water is not None:
            assert confirmed >= high_water
        if confirmed is not None:
            high_water = confirmed if high_water is None else max(high_water, confirmed)


@given(st.lists(deltas, min_size=1, max_size=60))
@settings(max_examples=200)
def test_attribution_is_never_older_than_a_processed_absence(sequence):
    # Once an absence at tick T for the device's current room has been
    # *applied*, no presence with tick < T may re-attribute the device:
    # a delayed presence must not resurrect a departed user.
    db = LocationDatabase()
    for delta in sequence:
        _apply(db, delta)
        record = db.record_of(DEVICE)
        if record is not None and record.room_id is not None:
            # Whatever room the device is in, the information the
            # attribution rests on is at least as fresh as everything
            # the database has acknowledged applying.
            assert record.since_tick <= record.last_confirmed_tick


@given(st.lists(deltas, min_size=1, max_size=60))
@settings(max_examples=200)
def test_departed_user_stays_departed(sequence):
    db = LocationDatabase()
    for delta in sequence:
        _apply(db, delta)
    record = db.record_of(DEVICE)
    if record is None:
        return
    departure = record.since_tick if record.room_id is None else None
    if departure is None:
        return
    # Replaying any delayed presence from before the departure is a
    # no-op: the tombstone/ordering guard refuses to resurrect.
    for kind, room, tick in sequence:
        if kind == "presence" and tick < departure:
            assert not db.apply_presence(DEVICE, room, tick, f"ws:{room}")
            assert db.current_room(DEVICE) is None


@given(st.lists(deltas, max_size=60), st.integers(0, 10_000))
@settings(max_examples=100)
def test_duplicate_suffix_is_idempotent(sequence, extra_tick):
    # Applying the whole sequence twice ends in the same state as once:
    # the guards make redelivery (a LAN duplicate storm) harmless.
    once = LocationDatabase()
    twice = LocationDatabase()
    for delta in sequence:
        _apply(once, delta)
        _apply(twice, delta)
    for delta in sequence:
        _apply(twice, delta)
    assert once.record_of(DEVICE) == twice.record_of(DEVICE)
    assert once.current_room(DEVICE) == twice.current_room(DEVICE)


@given(st.lists(deltas, max_size=40))
@settings(max_examples=100)
def test_tombstones_only_for_unknown_devices(sequence):
    db = LocationDatabase()
    for delta in sequence:
        before = db.record_of(DEVICE)
        kind, room, tick = delta
        _apply(db, delta)
        if kind == "absence" and before is None:
            # First contact was an absence: a tombstone pins the tick.
            record = db.record_of(DEVICE)
            assert record is not None and record.room_id is None
            assert record.since_tick == tick
