"""Tests for device identity, packets and constants."""

from __future__ import annotations

import pytest

from repro.bluetooth import constants
from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import BluetoothClock
from repro.bluetooth.device import BluetoothDevice, make_devices
from repro.bluetooth.hopping import Train, train_of_position
from repro.bluetooth.packets import DM1Packet, FHSPacket, IDPacket
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

    def test_id_packet(self):
        packet = IDPacket(lap=0x9E8B33, channel=3, tx_tick=10)
        assert packet.lap == constants.GIAC_LAP

    def test_dm1_payload_cap_documented(self):
        assert DM1Packet.MAX_PAYLOAD_BYTES == 17


class TestBluetoothDevice:
    def test_label_falls_back_to_address(self):
        device = BluetoothDevice(address=BDAddr(1))
        assert device.label == str(BDAddr(1))
        named = BluetoothDevice(address=BDAddr(1), name="alice")
        assert named.label == "alice"

    def test_base_phase_validated(self):
        with pytest.raises(ValueError):
            BluetoothDevice(address=BDAddr(1), base_phase=32)

    def test_page_scan_behavior_anchored_by_clock(self):
        device = BluetoothDevice(address=BDAddr(1), clock=BluetoothClock(offset=5000))
        assert device.page_scan_behavior().window_anchor == 5000 % 4096

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
