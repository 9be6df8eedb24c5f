"""The master side of device discovery: the inquiry procedure.

The master broadcasts ID packets according to an
:class:`~repro.bluetooth.hopping.InquiryTransmitSchedule` and collects
FHS responses arriving on its :class:`~repro.radio.ResponseChannel`.
Responses landing outside an inquiry window are lost (the radio has
moved on to connection management).

The procedure records, per responding device, the tick of the *first*
response received — exactly the quantity the paper measures ("the
interval ... ends when the master receives the answer from the slave to
the inquiry message").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.radio.channel import ReachabilityPredicate, ResponseChannel
from repro.sim.clock import seconds_from_ticks
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import SpanTracer

from .address import BDAddr
from .hopping import InquiryTransmitSchedule
from .packets import FHSPacket

#: Callback fired on each *new* device discovery: ``(packet, tick)``.
DiscoveryListener = Callable[[FHSPacket, int], None]


@dataclass(frozen=True)
class InquiryResult:
    """One discovered device, HCI-inquiry-result style."""

    address: BDAddr
    clkn: int
    discovered_tick: int

    @property
    def discovered_seconds(self) -> float:
        """Discovery time in seconds of simulated time."""
        return seconds_from_ticks(self.discovered_tick)


class InquiryProcedure:
    """A master running device discovery on a given transmit schedule."""

    #: An FHS packet occupies a full slot (625 µs = 2 ticks) on the air.
    #: The master has a single receiver, so while it is capturing one
    #: response it cannot tune to the other response half-slot of the
    #: same listening slot — the second response of a pair is lost.
    FHS_RX_TICKS = 2

    def __init__(
        self,
        kernel: Kernel,
        schedule: InquiryTransmitSchedule,
        name: str = "master",
        on_discovered: Optional[DiscoveryListener] = None,
        reachable: Optional[ReachabilityPredicate] = None,
        receiver_capture: bool = True,
        spans: Optional["SpanTracer"] = None,
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self._is_listening = schedule.windows.is_active
        self.name = name
        self.on_discovered = on_discovered
        self.receiver_capture = receiver_capture
        self._spans = spans
        self.channel = ResponseChannel(
            kernel, receiver=self._on_fhs, reachable=reachable, name=name
        )
        self.channel.repeat_receiver = self._on_repeat
        self._results: dict[BDAddr, InquiryResult] = {}
        #: Tick of the most recent successful response per device —
        #: duplicates included, so a tracker can tell "seen this window"
        #: apart from "first discovered long ago".
        self.last_seen: dict[BDAddr, int] = {}
        self.responses_received = 0
        self.responses_missed = 0  # arrived while the master was not listening
        self.responses_blocked = 0  # lost because the receiver was busy
        #: First sightings; a forgotten device counts again when it is
        #: next heard.  Unlike :attr:`discovered_count`, never shrinks.
        self.discoveries = 0
        self._receiver_busy_until = -1

    # -- reception ---------------------------------------------------------

    @hot_path
    def _on_repeat(self, sender: BDAddr, tick: int) -> bool:
        """The channel's repeat receiver: a lone response from a device
        already discovered, taken without its packet.

        Does what :meth:`_on_fhs` does for it, inline (this runs once per
        repeat response): the listening and receiver-capture checks, the
        counts and ``last_seen``.  Declines, doing nothing, for a first
        discovery and while spans are on; those go to :meth:`_on_fhs`
        with the packet.
        """
        if self._spans is not None or sender not in self._results:
            return False
        if not self._is_listening(tick):
            self.responses_missed += 1
            return True
        if self.receiver_capture:
            if tick < self._receiver_busy_until:
                self.responses_blocked += 1
                return True
            self._receiver_busy_until = tick + self.FHS_RX_TICKS
        self.responses_received += 1
        self.last_seen[sender] = tick
        return True

    def _on_fhs(self, packet: FHSPacket, tick: int) -> None:
        if not self._is_listening(tick):
            self.responses_missed += 1
            return
        if self.receiver_capture:
            if tick < self._receiver_busy_until:
                self.responses_blocked += 1
                return
            self._receiver_busy_until = tick + self.FHS_RX_TICKS
        self.responses_received += 1
        if self._spans is not None:
            self._spans.instant(
                "bt.response", "bluetooth", tick,
                master=self.name, sender=str(packet.sender),
            )
        self.last_seen[packet.sender] = tick
        if packet.sender in self._results:
            return
        result = InquiryResult(address=packet.sender, clkn=packet.clkn, discovered_tick=tick)
        self._results[packet.sender] = result
        self.discoveries += 1
        if self._spans is not None:
            self._spans.instant(
                "bt.discovery", "bluetooth", tick,
                master=self.name, sender=str(packet.sender),
            )
        if self.on_discovered is not None:
            self.on_discovered(packet, tick)

    # -- queries -----------------------------------------------------------

    @property
    def results(self) -> list[InquiryResult]:
        """All discoveries so far, in discovery order."""
        return sorted(self._results.values(), key=lambda r: r.discovered_tick)

    @property
    def discovered_count(self) -> int:
        """Number of distinct devices discovered."""
        return len(self._results)

    def has_discovered(self, address: BDAddr) -> bool:
        """Whether ``address`` has responded successfully."""
        return address in self._results

    def discovery_tick(self, address: BDAddr) -> Optional[int]:
        """Tick of first successful response from ``address``, if any."""
        result = self._results.get(address)
        return result.discovered_tick if result is not None else None

    def forget(self, address: BDAddr) -> None:
        """Drop a device from the discovered set and from ``last_seen``.

        BIPS workstations call this when a device's presence lapses so a
        re-appearing device counts as a fresh discovery.
        """
        self._results.pop(address, None)
        self.last_seen.pop(address, None)

    def reset(self) -> None:
        """Clear all discovery state, ``last_seen`` included (fresh
        inquiry round)."""
        self._results.clear()
        self.last_seen.clear()

    def __repr__(self) -> str:
        return (
            f"InquiryProcedure(name={self.name!r}, discovered={len(self._results)}, "
            f"responses={self.responses_received})"
        )
