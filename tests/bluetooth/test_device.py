"""Tests for device identity, packets and constants."""

from __future__ import annotations

import pytest

from repro.bluetooth import constants
from repro.bluetooth.address import BDAddr
from repro.bluetooth.device import BluetoothDevice, make_devices
from repro.bluetooth.hopping import Train, train_of_position
from repro.bluetooth.packets import FHSPacket
from repro.sim.rng import RandomStream


class TestConstants:
    def test_train_pass_is_10ms(self):
        # 16 slots of 625 µs.
        assert constants.TICKS_PER_TRAIN_PASS == 32

    def test_dwell_is_256_passes(self):
        assert constants.TICKS_PER_TRAIN_DWELL == 256 * 32

    def test_max_inquiry_needs_three_switches(self):
        # "at least three train switches must take place, so the inquiry
        # state may have to last for 10.24s"
        assert constants.INQUIRY_MAX_TICKS == 4 * constants.TICKS_PER_TRAIN_DWELL
        assert constants.INQUIRY_MAX_TICKS == 32768  # 10.24 s at 3200 Hz

    def test_bips_window_is_one_and_a_half_dwells(self):
        assert constants.BIPS_INQUIRY_WINDOW_TICKS == 8192 + 4096  # 3.84 s

    def test_scan_defaults(self):
        assert constants.T_INQUIRY_SCAN_TICKS == 4096
        assert constants.T_W_INQUIRY_SCAN_TICKS == 36
        assert constants.T_PAGE_SCAN_TICKS == constants.T_INQUIRY_SCAN_TICKS


class TestPackets:
    def test_fhs_carries_identity(self):
        packet = FHSPacket(sender=BDAddr(7), clkn=123, channel=5, tx_tick=999)
        assert packet.sender == BDAddr(7)
        assert packet.clkn == 123


class TestBluetoothDevice:
    def test_label_falls_back_to_address(self):
        device = BluetoothDevice(address=BDAddr(1))
        assert device.label == str(BDAddr(1))
        named = BluetoothDevice(address=BDAddr(1), name="alice")
        assert named.label == "alice"

    def test_base_phase_validated(self):
        with pytest.raises(ValueError):
            BluetoothDevice(address=BDAddr(1), base_phase=32)

    def test_make_devices_unique(self):
        devices = make_devices(20, RandomStream(1, "d"))
        assert len({d.address for d in devices}) == 20

    def test_make_devices_phase_range(self):
        devices = make_devices(50, RandomStream(2, "d"), phase_range=(0, 15))
        assert all(
            train_of_position(d.base_phase) is Train.A for d in devices
        )

    def test_make_devices_invalid_range(self):
        with pytest.raises(ValueError):
            make_devices(5, RandomStream(3, "d"), phase_range=(10, 40))
