"""Baseband packet types.

Only the fields the simulation acts on are modelled; payloads are
opaque.  Packet kinds follow the Bluetooth 1.1 baseband:

* ``ID`` — the inquiry/page probe: just an access code, no payload;
* ``FHS`` — frequency-hop-synchronisation: the inquiry response and the
  page handshake carrier, holding the sender's BD_ADDR and clock;
* ``POLL`` / ``NULL`` — link-maintenance packets inside a connection;
* ``DM1`` — a data packet (used for the BIPS application traffic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .address import BDAddr


class PacketType(enum.Enum):
    """Baseband packet kinds used in the simulation."""

    ID = "id"
    FHS = "fhs"
    POLL = "poll"
    NULL = "null"
    DM1 = "dm1"


@dataclass(frozen=True)
class IDPacket:
    """An inquiry or page probe: carries only the access code LAP."""

    lap: int
    channel: int
    tx_tick: int

    type: PacketType = PacketType.ID


class FHSPacket(NamedTuple):
    """Frequency-hop-synchronisation packet.

    As an inquiry response it tells the inquirer who the scanner is and
    what its native clock reads, which is exactly what a master needs in
    order to page the device later.

    Unlike the other packet types this is a ``NamedTuple``, not a frozen
    dataclass: the inquiry-scan swarm builds one per FHS response
    (651,754 in one benchmark run of the paper artefacts), and a named
    tuple builds about three times faster.  It is just as immutable.
    """

    sender: BDAddr
    clkn: int
    channel: int
    tx_tick: int

    type: PacketType = PacketType.FHS


@dataclass(frozen=True)
class PollPacket:
    """Master keep-alive inside a connection; solicits a response."""

    sender: BDAddr
    tx_tick: int

    type: PacketType = PacketType.POLL


@dataclass(frozen=True)
class NullPacket:
    """Slave acknowledgement with no payload."""

    sender: BDAddr
    tx_tick: int

    type: PacketType = PacketType.NULL


@dataclass(frozen=True)
class DM1Packet:
    """A 1-slot data packet carrying up to 17 bytes of payload.

    The BIPS application layer rides on these; ``payload`` is opaque to
    the baseband.
    """

    sender: BDAddr
    tx_tick: int
    payload: Any = None
    destination: Optional[BDAddr] = None

    type: PacketType = PacketType.DM1

    #: Maximum user payload of a DM1 packet in bytes (Bluetooth 1.1).
    MAX_PAYLOAD_BYTES = 17
