"""Tests for the Bluetooth native clock."""

from __future__ import annotations

from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import SCAN_FREQUENCY_CHANGE_TICKS


class TestBluetoothClock:
    def test_zero_offset_tracks_kernel_time(self):
        clock = BluetoothClock()
        assert clock.clkn(0) == 0
        assert clock.clkn(12345) == 12345

    def test_offset_applied(self):
        clock = BluetoothClock(offset=100)
        assert clock.clkn(0) == 100
        assert clock.clkn(50) == 150

    def test_wraps_at_28_bits(self):
        clock = BluetoothClock(offset=CLKN_WRAP - 1)
        assert clock.clkn(1) == 0

    def test_ticks_to_next_phase_change(self):
        clock = BluetoothClock()
        assert clock.ticks_to_next_phase_change(0) == 4096
        assert clock.ticks_to_next_phase_change(1) == 4095
        assert clock.ticks_to_next_phase_change(4095) == 1
        assert clock.ticks_to_next_phase_change(4096) == 4096

    def test_next_phase_change_consistent_with_phase(self):
        clock = BluetoothClock(offset=777)
        for tick in (0, 100, 5000, 123456):
            delta = clock.ticks_to_next_phase_change(tick)
            before = clock.clkn(tick + delta - 1) // SCAN_FREQUENCY_CHANGE_TICKS
            after = clock.clkn(tick + delta) // SCAN_FREQUENCY_CHANGE_TICKS
            assert after == before + 1
