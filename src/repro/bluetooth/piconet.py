"""Piconet membership management.

A piconet is the star-shaped network of §3: one master, up to seven
active slaves addressed by 3-bit AM_ADDRs.  The BIPS workstation is
always the master; handheld devices are always slaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .address import BDAddr
from .connection import Connection, DisconnectReason
from .constants import MAX_ACTIVE_SLAVES


class PiconetFullError(Exception):
    """All seven active-member addresses are in use."""


@dataclass
class Piconet:
    """One master's piconet: AM_ADDR allocation and member links."""

    master: BDAddr
    _members: dict[BDAddr, Connection] = field(default_factory=dict)
    _history: list[Connection] = field(default_factory=list)

    @property
    def active_count(self) -> int:
        """Number of currently connected slaves."""
        return len(self._members)

    @property
    def is_full(self) -> bool:
        """Whether the active-member address space is exhausted."""
        return self.active_count >= MAX_ACTIVE_SLAVES

    @property
    def members(self) -> list[Connection]:
        """Live connections, ordered by AM_ADDR."""
        return sorted(self._members.values(), key=lambda c: c.am_addr)

    @property
    def history(self) -> list[Connection]:
        """All closed connections, in close order."""
        return list(self._history)

    def connection_of(self, slave: BDAddr) -> Optional[Connection]:
        """The live connection to ``slave``, if any."""
        return self._members.get(slave)

    def _free_am_addr(self) -> int:
        used = {conn.am_addr for conn in self._members.values()}  # lint: disable=DET003 -- membership set only; order cannot reach the result
        for am_addr in range(1, MAX_ACTIVE_SLAVES + 1):
            if am_addr not in used:
                return am_addr
        raise PiconetFullError(f"piconet of {self.master} is full")

    def attach(self, slave: BDAddr, tick: int) -> Connection:
        """Admit ``slave`` as an active member.

        Raises:
            PiconetFullError: if seven slaves are already active.
            ValueError: if the slave is already a member.
        """
        if slave in self._members:
            raise ValueError(f"{slave} is already in the piconet of {self.master}")
        if self.is_full:
            raise PiconetFullError(f"piconet of {self.master} is full")
        connection = Connection(
            master=self.master,
            slave=slave,
            am_addr=self._free_am_addr(),
            established_tick=tick,
        )
        self._members[slave] = connection
        return connection

    def detach(self, slave: BDAddr, tick: int, reason: DisconnectReason) -> Optional[Connection]:
        """Remove ``slave``; returns the closed connection, if present."""
        connection = self._members.pop(slave, None)
        if connection is None:
            return None
        connection.close(tick, reason)
        self._history.append(connection)
        return connection

    def __contains__(self, slave: BDAddr) -> bool:
        return slave in self._members

    def __repr__(self) -> str:
        return f"Piconet(master={self.master}, active={self.active_count})"
