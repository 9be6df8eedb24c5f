"""Established baseband connections (the connection state of §3.2).

A connection records piconet membership: who the slave is, its AM_ADDR,
and when and why the link ended.  Traffic over the link is not modelled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .address import BDAddr


class ConnectionState(enum.Enum):
    """Lifecycle of a baseband link."""

    ACTIVE = "active"
    CLOSED = "closed"


class DisconnectReason(enum.Enum):
    """Why a link ended."""

    LOCAL_CLOSE = "local_close"
    REMOTE_CLOSE = "remote_close"
    DEVICE_LEFT = "device_left"


@dataclass
class Connection:
    """One master↔slave link inside a piconet."""

    master: BDAddr
    slave: BDAddr
    am_addr: int
    established_tick: int
    state: ConnectionState = ConnectionState.ACTIVE
    closed_tick: Optional[int] = None
    close_reason: Optional[DisconnectReason] = None

    def __post_init__(self) -> None:
        if not 1 <= self.am_addr <= 7:
            raise ValueError(f"AM_ADDR must be 1..7, got {self.am_addr}")

    @property
    def active(self) -> bool:
        """Whether the link is up."""
        return self.state is ConnectionState.ACTIVE

    def close(self, tick: int, reason: DisconnectReason) -> None:
        """Tear the link down; idempotent."""
        if not self.active:
            return
        self.state = ConnectionState.CLOSED
        self.closed_tick = tick
        self.close_reason = reason
