"""Established baseband connections (the connection state of §3.2)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.clock import seconds_from_ticks

from .address import BDAddr
from .constants import SUPERVISION_TIMEOUT_TICKS, TICKS_PER_SLOT


class ConnectionState(enum.Enum):
    """Lifecycle of a baseband link."""

    ACTIVE = "active"
    CLOSED = "closed"


class DisconnectReason(enum.Enum):
    """Why a link ended."""

    LOCAL_CLOSE = "local_close"
    REMOTE_CLOSE = "remote_close"
    SUPERVISION_TIMEOUT = "supervision_timeout"
    DEVICE_LEFT = "device_left"


@dataclass
class Connection:
    """One master↔slave link inside a piconet.

    Tracks liveness: every successful exchange updates
    ``last_heard_tick``.  ``supervision_timeout_ticks`` is the link's
    configured supervision timeout, the spec's limit on how long a
    master may go without hearing the slave.
    """

    master: BDAddr
    slave: BDAddr
    am_addr: int
    established_tick: int
    supervision_timeout_ticks: int = SUPERVISION_TIMEOUT_TICKS
    state: ConnectionState = ConnectionState.ACTIVE
    last_heard_tick: int = field(init=False)
    closed_tick: Optional[int] = None
    close_reason: Optional[DisconnectReason] = None
    packets_exchanged: int = 0
    payloads: list[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.am_addr <= 7:
            raise ValueError(f"AM_ADDR must be 1..7, got {self.am_addr}")
        self.last_heard_tick = self.established_tick

    @property
    def active(self) -> bool:
        """Whether the link is up."""
        return self.state is ConnectionState.ACTIVE

    def exchange(self, tick: int, payload: Any = None) -> None:
        """Record a successful master↔slave exchange at ``tick``."""
        if not self.active:
            raise RuntimeError(f"exchange on closed link {self.master}->{self.slave}")
        if tick < self.last_heard_tick:
            raise ValueError(f"exchange tick {tick} precedes last heard")
        self.last_heard_tick = tick
        self.packets_exchanged += 1
        if payload is not None:
            self.payloads.append(payload)

    def close(self, tick: int, reason: DisconnectReason) -> None:
        """Tear the link down; idempotent."""
        if not self.active:
            return
        self.state = ConnectionState.CLOSED
        self.closed_tick = tick
        self.close_reason = reason

    @property
    def duration_ticks(self) -> Optional[int]:
        """Link lifetime, once closed."""
        if self.closed_tick is None:
            return None
        return self.closed_tick - self.established_tick

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = self.state.value
        if self.close_reason is not None:
            status = f"{status}({self.close_reason.value})"
        return (
            f"{self.slave} am={self.am_addr} since "
            f"{seconds_from_ticks(self.established_tick):.3f}s [{status}]"
        )


#: One DM1 exchange (master poll + slave data) occupies two slots.
DM1_ROUND_TRIP_TICKS = 2 * TICKS_PER_SLOT
