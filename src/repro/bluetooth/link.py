"""Serving connected slaves: round-robin link scheduling over DM1 slots.

§5 splits the master's operational cycle into a discovery window and
"the remaining time to serve the slaves applications".  This module
models that remaining time: during each serving window the master polls
its active slaves round-robin; every poll round is a two-slot exchange
(master packet + slave response), and application payloads ride on DM1
packets carrying at most 17 bytes each.

The model yields the quantity the paper leaves unquantified: how much
application bandwidth each of up to seven slaves actually receives
under a given scheduling policy, and how long an application message
(say, the navigation path for the handheld's display) takes to deliver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.clock import seconds_from_ticks

from .connection import DM1_ROUND_TRIP_TICKS
from .packets import DM1Packet

#: Usable payload per two-slot DM1 round (one direction), bytes.
DM1_PAYLOAD_BYTES = DM1Packet.MAX_PAYLOAD_BYTES


@dataclass
class AppMessage:
    """One application payload queued for a slave."""

    payload_bytes: int
    enqueued_tick: int
    delivered_tick: Optional[int] = None
    bytes_sent: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive: {self.payload_bytes}")

    @property
    def delivered(self) -> bool:
        """Whether the full payload has been acknowledged."""
        return self.delivered_tick is not None

    @property
    def latency_seconds(self) -> Optional[float]:
        """Queueing + transmission time, once delivered."""
        if self.delivered_tick is None:
            return None
        return seconds_from_ticks(self.delivered_tick - self.enqueued_tick)

    @property
    def rounds_needed(self) -> int:
        """DM1 rounds required for the full payload."""
        return -(-self.payload_bytes // DM1_PAYLOAD_BYTES)


@dataclass
class SlaveLinkState:
    """Per-slave queue and counters."""

    slave_id: str
    queue: list[AppMessage] = field(default_factory=list)
    delivered: list[AppMessage] = field(default_factory=list)
    polls: int = 0
    idle_polls: int = 0
    bytes_delivered: int = 0


class RoundRobinLinkScheduler:
    """Simulates one serving window at a time, slot-exactly.

    The scheduler is pure arithmetic over the window's slot budget (no
    kernel events needed: inside a serving window nothing else contends
    for the radio), which keeps full-system simulations cheap while
    still accounting for every slot.
    """

    def __init__(self) -> None:
        self._slaves: dict[str, SlaveLinkState] = {}
        self._archived_delivered: list[AppMessage] = []
        self.windows_served = 0
        self.slots_used = 0
        self.slots_idle = 0

    # -- membership ----------------------------------------------------------

    def attach(self, slave_id: str) -> None:
        """Add a slave to the polling wheel; idempotent."""
        self._slaves.setdefault(slave_id, SlaveLinkState(slave_id))

    def detach(self, slave_id: str) -> Optional[SlaveLinkState]:
        """Remove a slave (undelivered messages are lost with the link).

        Messages already delivered to the slave stay in the scheduler's
        delivery record for later analysis.
        """
        state = self._slaves.pop(slave_id, None)
        if state is not None:
            self._archived_delivered.extend(state.delivered)
        return state

    @property
    def slave_count(self) -> int:
        """Number of slaves on the wheel."""
        return len(self._slaves)

    @property
    def slave_ids(self) -> list[str]:
        """Ids of the slaves currently on the wheel."""
        return list(self._slaves)

    def state_of(self, slave_id: str) -> SlaveLinkState:
        """One slave's link state."""
        return self._slaves[slave_id]

    # -- application traffic ---------------------------------------------------

    def enqueue(self, slave_id: str, payload_bytes: int, tick: int) -> AppMessage:
        """Queue an application message for delivery to ``slave_id``."""
        message = AppMessage(payload_bytes=payload_bytes, enqueued_tick=tick)
        self._slaves[slave_id].queue.append(message)
        return message

    # -- serving ------------------------------------------------------------------

    def serve_window(self, start_tick: int, end_tick: int) -> int:
        """Run one serving window; returns payload bytes delivered.

        Slaves are polled round-robin, one two-slot round each.  A poll
        carries up to 17 payload bytes of the slave's head-of-line
        message (or is a bare POLL/NULL keep-alive when the queue is
        empty).
        """
        if end_tick < start_tick:
            raise ValueError(f"window ends before it starts: {start_tick}..{end_tick}")
        self.windows_served += 1
        delivered_bytes = 0
        if not self._slaves:
            self.slots_idle += (end_tick - start_tick) // 2
            return 0
        wheel = list(self._slaves.values())
        position = 0
        tick = start_tick
        while tick + DM1_ROUND_TRIP_TICKS <= end_tick:
            state = wheel[position % len(wheel)]
            position += 1
            state.polls += 1
            self.slots_used += DM1_ROUND_TRIP_TICKS // 2
            if state.queue:
                message = state.queue[0]
                chunk = min(
                    DM1_PAYLOAD_BYTES, message.payload_bytes - message.bytes_sent
                )
                message.bytes_sent += chunk
                delivered_bytes += chunk
                state.bytes_delivered += chunk
                if message.bytes_sent >= message.payload_bytes:
                    message.delivered_tick = tick + DM1_ROUND_TRIP_TICKS
                    state.delivered.append(message)
                    state.queue.pop(0)
            else:
                state.idle_polls += 1
            tick += DM1_ROUND_TRIP_TICKS
        return delivered_bytes

    # -- analysis -------------------------------------------------------------------

    def delivered_messages(self) -> list[AppMessage]:
        """All delivered messages, including to slaves since detached."""
        result: list[AppMessage] = list(self._archived_delivered)
        for state in self._slaves.values():  # lint: disable=DET003 -- dict preserves attach order, which is the documented delivery order
            result.extend(state.delivered)
        return result
