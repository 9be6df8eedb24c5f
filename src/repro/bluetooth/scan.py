"""The slave side of device discovery: inquiry-scan vocabulary.

The configuration, lifecycle and counter types of the Bluetooth 1.1
inquiry-scan / inquiry-response protocol the paper describes in §3.1,
plus the air-rendezvous primitive :func:`next_listen_rendezvous` that
page scan (:mod:`repro.bluetooth.paging`) shares.  The state machine
itself runs in :class:`~repro.bluetooth.swarm.InquiryScanSwarm`, one row
per scanning slave.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .btclock import BluetoothClock
from .constants import (
    BACKOFF_MAX_SLOTS,
    T_INQUIRY_SCAN_TICKS,
    T_W_INQUIRY_SCAN_TICKS,
    TICKS_PER_SLOT,
)
from .hopping import InquiryTransmitSchedule


class PhaseMode(enum.Enum):
    """How the slave's listening frequency evolves over time.

    * ``SEQUENCE`` — spec behaviour: the phase steps through all 32
      sequence positions, one step per 1.28 s.
    * ``TRAIN_LOCKED`` — the phase steps through the 16 positions of the
      slave's starting train only.  This models the Figure-2 scenario
      ("slaves ... start listening on frequencies of train A" and are
      all discoverable by an A-only master).
    * ``FIXED`` — the phase never moves; useful for controlled tests.
    """

    SEQUENCE = "sequence"
    TRAIN_LOCKED = "train_locked"
    FIXED = "fixed"


class BackoffReentry(enum.Enum):
    """Where the slave listens after its random backoff expires.

    * ``IMMEDIATE`` — re-enters listening right away and stays listening
      until it hears the next ID (BlueZ-like behaviour; what the
      Table-1 timings imply).
    * ``NEXT_WINDOW`` — resumes the normal scan-window schedule
      (strictest reading of the scan interval); ablated in the benches.
    """

    IMMEDIATE = "immediate"
    NEXT_WINDOW = "next_window"


class ResponseMode(enum.Enum):
    """What the slave does after its first FHS response.

    A slave can never know whether its response was received (inquiry
    responses are not acknowledged), so the choices are:

    * ``CONTINUOUS`` — keep answering every subsequently heard ID with
      no further backoff (the reading of Bluetooth 1.1 where the random
      backoff precedes only the *first* response).  This is the mode
      that reproduces the Figure-2 contention: a slave whose responses
      keep losing the master's single receiver stays undiscovered until
      the scan phases diverge.
    * ``BACKOFF_EACH`` — draw a fresh random backoff after every
      response (the alternative spec reading); ablated in the benches.
    * ``SINGLE`` — stop after one response (BlueHoc-style enrolment).
    """

    CONTINUOUS = "continuous"
    BACKOFF_EACH = "backoff_each"
    SINGLE = "single"


class ScannerState(enum.Enum):
    """Lifecycle of one scanning slave."""

    IDLE = "idle"
    SEEKING = "seeking"  # waiting to hear a first ID
    BACKOFF = "backoff"  # sleeping out the random backoff
    RESPONDING = "responding"  # waiting to hear the ID it will answer
    DONE = "done"  # respond_once satisfied
    EXHAUSTED = "exhausted"  # nothing more to hear before the horizon
    STOPPED = "stopped"


@dataclass(frozen=True)
class ScanConfig:
    """Inquiry-scan behaviour knobs.

    Defaults are the Bluetooth 1.1 defaults quoted in the paper
    (T_w = 11.25 ms, T_scan = 1.28 s).
    """

    window_ticks: int = T_W_INQUIRY_SCAN_TICKS
    interval_ticks: int = T_INQUIRY_SCAN_TICKS
    phase_mode: PhaseMode = PhaseMode.SEQUENCE
    backoff_reentry: BackoffReentry = BackoffReentry.IMMEDIATE
    backoff_max_slots: int = BACKOFF_MAX_SLOTS
    response_mode: ResponseMode = ResponseMode.CONTINUOUS
    #: inqrespTO: if the air goes quiet for longer than this while the
    #: slave is in the response phase, it reverts to plain inquiry scan
    #: and the next ID heard triggers a fresh random backoff.  This is
    #: what re-randomises contention between master inquiry windows.
    response_timeout_ticks: int = 128 * TICKS_PER_SLOT

    def __post_init__(self) -> None:
        if self.window_ticks <= 0:
            raise ValueError(f"window_ticks must be positive: {self.window_ticks}")
        if self.interval_ticks < self.window_ticks:
            raise ValueError(
                f"interval {self.interval_ticks} < window {self.window_ticks}"
            )
        if self.backoff_max_slots < 0:
            raise ValueError(f"backoff_max_slots negative: {self.backoff_max_slots}")

    @property
    def is_continuous(self) -> bool:
        """True when the slave listens 100 % of the time."""
        return self.window_ticks >= self.interval_ticks

    @classmethod
    def continuous(cls, **overrides: object) -> "ScanConfig":
        """A slave permanently in inquiry scan (the Figure-2 slaves)."""
        return cls(window_ticks=1, interval_ticks=1, **overrides)  # type: ignore[arg-type]

    @classmethod
    def interleaved_with_page_scan(cls, **overrides: object) -> "ScanConfig":
        """The Table-1 slave: alternating inquiry scan and page scan.

        Each 1.28 s scan interval is spent on one scan type in turn, so
        an *inquiry* scan window opens only every 2.56 s.
        """
        return cls(
            window_ticks=T_W_INQUIRY_SCAN_TICKS,
            interval_ticks=2 * T_INQUIRY_SCAN_TICKS,
            **overrides,  # type: ignore[arg-type]
        )


def next_listen_rendezvous(
    schedule: InquiryTransmitSchedule,
    listen_position,
    clock: BluetoothClock,
    fixed_phase: bool,
    window_ticks: int,
    interval_ticks: int,
    window_anchor: int,
    from_tick: int,
    before_tick: int,
    always_listening: bool = False,
) -> Optional[int]:
    """First tick in ``[from_tick, before_tick)`` at which a scanning
    device hears the master.

    This is the air-rendezvous primitive shared by inquiry scan and page
    scan: intersect the scanner's periodic listen windows, its phase
    segments (the listening frequency holds for 1.28 s), and the
    master's transmit schedule.  ``listen_position(tick)`` maps a tick
    to the sequence position the device listens on.
    """
    tick = from_tick
    while tick < before_tick:
        if always_listening or window_ticks >= interval_ticks:
            segment_limit = before_tick
        else:
            index = (tick - window_anchor) // interval_ticks
            w_start = window_anchor + index * interval_ticks
            if w_start + window_ticks <= tick:
                w_start += interval_ticks
            if w_start >= before_tick:
                return None
            tick = max(tick, w_start)
            segment_limit = min(w_start + window_ticks, before_tick)
        if fixed_phase:
            segment_end = segment_limit
        else:
            segment_end = min(
                segment_limit, tick + clock.ticks_to_next_phase_change(tick)
            )
        heard = schedule.next_tx_of_position(listen_position(tick), tick, segment_end)
        if heard is not None:
            return heard
        tick = segment_end
    return None


@dataclass
class ScannerStats:
    """Per-slave inquiry-scan event counters and timestamps."""

    ids_heard: int = 0
    backoffs: int = 0
    responses: int = 0
    first_heard_tick: Optional[int] = None
    first_response_tick: Optional[int] = None
    response_ticks: list[int] = field(default_factory=list)
