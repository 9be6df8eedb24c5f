"""Slot-accurate Bluetooth 1.1 baseband simulator (the BlueHoc substitute).

Layers:

* identity — :class:`BDAddr`, :class:`BluetoothClock`, :class:`BluetoothDevice`
* hopping — inquiry trains and the master transmit schedule
* discovery — :class:`InquiryProcedure` (master) and
  :class:`~repro.bluetooth.swarm.InquiryScanSwarm` (every scanning
  slave of one piconet, with the v1.1 random backoff; one row per slave)
* connection setup — :class:`PageProcedure`, :class:`Connection`,
  :class:`Piconet`
"""

from .address import BDAddr, address_block
from .btclock import CLKN_WRAP, BluetoothClock
from .connection import Connection, ConnectionState, DisconnectReason
from .constants import (
    BACKOFF_MAX_SLOTS,
    BIPS_INQUIRY_WINDOW_TICKS,
    BIPS_OPERATIONAL_CYCLE_TICKS,
    GIAC_LAP,
    INQUIRY_MAX_TICKS,
    MAX_ACTIVE_SLAVES,
    N_INQUIRY,
    NUM_INQUIRY_FREQUENCIES,
    NUM_RF_CHANNELS,
    T_INQUIRY_SCAN_TICKS,
    T_W_INQUIRY_SCAN_TICKS,
    TICKS_PER_TRAIN_DWELL,
    TICKS_PER_TRAIN_PASS,
    TRAIN_SIZE,
)
from .device import BluetoothDevice, make_devices
from .link import (
    DM1_PAYLOAD_BYTES,
    AppMessage,
    RoundRobinLinkScheduler,
    SlaveLinkState,
)
from .hopping import (
    InquiryTransmitSchedule,
    PeriodicWindows,
    Train,
    TrainStrategy,
    Window,
    continuous_inquiry,
    inquiry_sequence,
    periodic_inquiry,
    train_of_position,
    tx_offset_of_position,
)
from .inquiry import InquiryProcedure, InquiryResult
from .packets import DM1Packet, FHSPacket, IDPacket, NullPacket, PacketType, PollPacket
from .page import PageOutcome, PageProcedure, PageResult, PageScanBehavior
from .paging import N_PAGE, SlotLevelPageOutcome, SlotLevelPager
from .piconet import Piconet, PiconetFullError
from .scan import (
    BackoffReentry,
    PhaseMode,
    ScanConfig,
    ScannerState,
    ScannerStats,
)

__all__ = [
    "BDAddr",
    "address_block",
    "CLKN_WRAP",
    "BluetoothClock",
    "Connection",
    "ConnectionState",
    "DisconnectReason",
    "BACKOFF_MAX_SLOTS",
    "BIPS_INQUIRY_WINDOW_TICKS",
    "BIPS_OPERATIONAL_CYCLE_TICKS",
    "GIAC_LAP",
    "INQUIRY_MAX_TICKS",
    "MAX_ACTIVE_SLAVES",
    "N_INQUIRY",
    "NUM_INQUIRY_FREQUENCIES",
    "NUM_RF_CHANNELS",
    "T_INQUIRY_SCAN_TICKS",
    "T_W_INQUIRY_SCAN_TICKS",
    "TICKS_PER_TRAIN_DWELL",
    "TICKS_PER_TRAIN_PASS",
    "TRAIN_SIZE",
    "BluetoothDevice",
    "make_devices",
    "DM1_PAYLOAD_BYTES",
    "AppMessage",
    "RoundRobinLinkScheduler",
    "SlaveLinkState",
    "InquiryTransmitSchedule",
    "PeriodicWindows",
    "Train",
    "TrainStrategy",
    "Window",
    "continuous_inquiry",
    "inquiry_sequence",
    "periodic_inquiry",
    "train_of_position",
    "tx_offset_of_position",
    "InquiryProcedure",
    "InquiryResult",
    "DM1Packet",
    "FHSPacket",
    "IDPacket",
    "NullPacket",
    "PacketType",
    "PollPacket",
    "PageOutcome",
    "PageProcedure",
    "PageResult",
    "PageScanBehavior",
    "N_PAGE",
    "SlotLevelPageOutcome",
    "SlotLevelPager",
    "Piconet",
    "PiconetFullError",
    "BackoffReentry",
    "PhaseMode",
    "ScanConfig",
    "ScannerState",
    "ScannerStats",
]
