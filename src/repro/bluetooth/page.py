"""Page outcomes: what one connection-setup attempt produced (§3.2).

After inquiry, the master knows a slave's BD_ADDR and native clock
(from the FHS response) and pages it on the slave's page hopping
sequence.  :class:`~repro.bluetooth.paging.SlotLevelPager` plays that
rendezvous out on the air; this module holds the result types it
reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .address import BDAddr


class PageOutcome(enum.Enum):
    """Terminal states of one page attempt."""

    CONNECTED = "connected"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class PageResult:
    """What a page attempt produced."""

    address: BDAddr
    outcome: PageOutcome
    started_tick: int
    finished_tick: int

    @property
    def latency_ticks(self) -> int:
        """Page latency in ticks."""
        return self.finished_tick - self.started_tick
