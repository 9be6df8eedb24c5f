"""Tests for tick/second arithmetic and the simulated clock."""

from __future__ import annotations

import pytest

from repro.sim.clock import (
    TICK_MICROSECONDS,
    TICKS_PER_SECOND,
    TICKS_PER_SLOT,
    SimClock,
    seconds_from_ticks,
    ticks_from_milliseconds,
    ticks_from_seconds,
)


class TestConversions:
    def test_ticks_per_second_is_native_clock_rate(self):
        # The Bluetooth native clock runs at 3.2 kHz (312.5 µs period).
        assert TICKS_PER_SECOND == 3200
        assert TICK_MICROSECONDS == 312.5

    def test_one_second_roundtrip(self):
        assert ticks_from_seconds(1.0) == 3200
        assert seconds_from_ticks(3200) == 1.0

    def test_scan_interval_is_4096_ticks(self):
        assert ticks_from_seconds(1.28) == 4096

    def test_scan_window_is_36_ticks(self):
        assert ticks_from_milliseconds(11.25) == 36

    def test_train_dwell_is_8192_ticks(self):
        # 256 train passes of 10 ms = 2.56 s = 4096 slots = 8192 ticks.
        assert ticks_from_seconds(2.56) == 8192

    def test_milliseconds_roundtrip(self):
        assert ticks_from_milliseconds(10.0) == 32

    def test_slot_conversions(self):
        assert TICKS_PER_SLOT == 2

    def test_rounding_to_nearest_tick(self):
        # 100 µs is less than half a tick -> rounds to 0.
        assert ticks_from_seconds(0.0001) == 0
        # 200 µs rounds up to one tick.
        assert ticks_from_seconds(0.0002) == 1


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_custom_start(self):
        assert SimClock(start=100).now == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(50)
        assert clock.now == 50

    def test_advance_to_same_tick_is_noop(self):
        clock = SimClock(start=10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_cannot_move_backwards(self):
        clock = SimClock(start=10)
        with pytest.raises(ValueError):
            clock.advance_to(9)

    def test_now_seconds(self):
        clock = SimClock(start=3200)
        assert clock.now_seconds == 1.0

    def test_repr_mentions_time(self):
        assert "3200" in repr(SimClock(start=3200))
