"""The one baseband packet the simulation builds: the FHS response.

Only the fields the simulation acts on are modelled.  The inquiry ID
probe is implicit in the master's transmit schedule, and application
traffic inside a connection is not modelled.
"""

from __future__ import annotations

from typing import NamedTuple

from .address import BDAddr


class FHSPacket(NamedTuple):
    """Frequency-hop-synchronisation packet.

    As an inquiry response it tells the inquirer who the scanner is and
    what its native clock reads, which is exactly what a master needs in
    order to page the device later.

    The inquiry-scan swarm builds one only when the master's receiver
    needs it: for a first discovery, while spans are on, or for every
    transmitter under a reachability predicate.  A repeat response from
    a device the master already knows costs no packet (6,107 packets for
    651,754 responses in one benchmark run of the paper artefacts).  A
    ``NamedTuple`` rather than a frozen dataclass: it builds about three
    times faster, and is just as immutable.
    """

    sender: BDAddr
    clkn: int
    channel: int
    tx_tick: int
