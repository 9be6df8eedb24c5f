"""The master side of device discovery: the inquiry procedure.

The master broadcasts ID packets according to an
:class:`~repro.bluetooth.hopping.InquiryTransmitSchedule` and collects
FHS responses arriving on its :class:`~repro.radio.channel.ResponseChannel`.
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
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import SpanTracer

from .address import BDAddr
from .hopping import InquiryTransmitSchedule, PeriodicWindows
from .packets import FHSPacket

#: Callback fired on each *new* device discovery: ``(packet, tick)``.
DiscoveryListener = Callable[[FHSPacket, int], None]


@dataclass(frozen=True)
class InquiryResult:
    """One discovered device, HCI-inquiry-result style."""

    address: BDAddr
    clkn: int
    discovered_tick: int


#: An FHS packet occupies a full slot (625 µs = 2 ticks) on the air.
#: The master has a single receiver, so while it is capturing one
#: response it cannot tune to the other response half-slot of the same
#: listening slot — the second response of a pair is lost.
FHS_RX_TICKS = 2


class _Reception:
    """What the master's single receiver hears, counts and remembers.

    The channel calls these methods, so they live apart from
    :class:`InquiryProcedure`, which owns the channel: the channel holds
    no reference back to its owner, and a finished trial is freed by
    reference counting instead of waiting for the cyclic GC.
    """

    __slots__ = (
        "name", "windows", "is_listening", "capture", "spans", "on_discovered", "results",
        "last_seen", "received", "missed", "blocked", "discoveries", "busy_until",
        "window_start", "window_end",
    )

    def __init__(
        self,
        name: str,
        windows: PeriodicWindows,
        capture: bool,
        spans: Optional["SpanTracer"],
    ) -> None:
        self.name = name
        self.windows = windows
        self.is_listening = windows.is_active
        self.capture = capture
        self.spans = spans
        self.on_discovered: Optional[DiscoveryListener] = None
        self.results: dict[BDAddr, InquiryResult] = {}
        self.last_seen: dict[BDAddr, int] = {}
        self.received = 0
        self.missed = 0
        self.blocked = 0
        self.discoveries = 0
        self.busy_until = -1
        # The listening window on_repeat last looked up (empty at first).
        self.window_start = 0
        self.window_end = 0

    @property
    def discovered_count(self) -> int:
        """Number of distinct devices discovered.  ``bipsbench``'s traced
        pass reads it off the owner of the channel's receiver to count
        ``bluetooth.discoveries``."""
        return len(self.results)

    @hot_path
    def on_repeat(self, sender: BDAddr, tick: int) -> bool:
        """The channel's repeat receiver: a lone response from a device
        already discovered, taken without its packet.

        Does what :meth:`on_fhs` does for it, inline (this runs once per
        repeat response): the listening and receiver-capture checks, the
        counts, the ``bt.response`` instant and ``last_seen``.  Declines,
        doing nothing, for a first discovery; that goes to
        :meth:`on_fhs` with the packet.  The listening check reads the
        bounds of the window it last found, and looks the window up again
        only for a tick outside them.
        """
        if sender not in self.results:
            return False
        if not self.window_start <= tick < self.window_end:
            window = self.windows.containing(tick)
            if window is None:
                self.missed += 1
                return True
            self.window_start = window.start
            self.window_end = window.end
        if self.capture:
            if tick < self.busy_until:
                self.blocked += 1
                return True
            self.busy_until = tick + FHS_RX_TICKS
        self.received += 1
        if self.spans is not None:
            self.spans.instant(
                "bt.response", "bluetooth", tick, master=self.name, sender=str(sender)
            )
        self.last_seen[sender] = tick
        return True

    def on_passes(self, lone: list[tuple[int, BDAddr]], passes: int, period: int) -> bool:
        """The channel's pass receiver: the lone responses ``(tick,
        sender)`` of one train pass, in tick order, each recurring every
        ``period`` ticks for ``passes`` (at least 2) passes.

        Declines, changing nothing, unless one listening window holds
        every pass and no response of the first two passes would be
        received from a sender not yet discovered (a first discovery
        takes :meth:`on_fhs`, whose listener may post events).  Otherwise
        the first two passes are evaluated response by response, as
        :meth:`on_repeat` would take them, and the second pass's outcome
        is replicated for the rest: the received and blocked counts,
        ``last_seen``, the capture state and the ``bt.response``
        instants.  That is exact because capture reaches one half-slot
        ahead and responses come at most in pairs of adjacent half-slots:
        a response is blocked exactly when the one just before it was
        received, so every pass after the first meets the same
        predecessor and repeats the second pass one ``period`` later.
        (The first pass's predecessor is whatever came before.)
        """
        if not lone:
            return True
        rest = passes - 2
        window = self.windows.containing(lone[0][0])
        if window is None or window.end <= lone[-1][0] + (rest + 1) * period:
            return False
        results = self.results
        capture = self.capture
        busy = self.busy_until
        outcomes: list[tuple[list[tuple[int, BDAddr]], int]] = []
        for shift in (0, period):
            taken: list[tuple[int, BDAddr]] = []
            blocked = 0
            for tick, sender in lone:
                tick += shift
                if capture:
                    if tick < busy:
                        blocked += 1
                        continue
                    busy = tick + FHS_RX_TICKS
                if sender not in results:
                    return False
                taken.append((tick, sender))
            outcomes.append((taken, blocked))
        (first, first_blocked), (second, second_blocked) = outcomes
        self.received += len(first) + len(second) * (rest + 1)
        self.blocked += first_blocked + second_blocked * (rest + 1)
        if capture and second:
            busy += rest * period
        self.busy_until = busy
        last_seen = self.last_seen
        for tick, sender in first:
            last_seen[sender] = tick
        for tick, sender in second:
            last_seen[sender] = tick + rest * period
        spans = self.spans
        if spans is not None:
            for tick, sender in first:
                spans.instant(
                    "bt.response", "bluetooth", tick, master=self.name, sender=str(sender)
                )
            for index in range(rest + 1):
                for tick, sender in second:
                    spans.instant(
                        "bt.response", "bluetooth", tick + index * period,
                        master=self.name, sender=str(sender),
                    )
        return True

    def on_fhs(self, packet: FHSPacket, tick: int) -> None:
        """The channel's receiver: a lone response with its packet."""
        if not self.is_listening(tick):
            self.missed += 1
            return
        if self.capture:
            if tick < self.busy_until:
                self.blocked += 1
                return
            self.busy_until = tick + FHS_RX_TICKS
        self.received += 1
        if self.spans is not None:
            self.spans.instant(
                "bt.response", "bluetooth", tick,
                master=self.name, sender=str(packet.sender),
            )
        self.last_seen[packet.sender] = tick
        if packet.sender in self.results:
            return
        result = InquiryResult(address=packet.sender, clkn=packet.clkn, discovered_tick=tick)
        self.results[packet.sender] = result
        self.discoveries += 1
        if self.spans is not None:
            self.spans.instant(
                "bt.discovery", "bluetooth", tick,
                master=self.name, sender=str(packet.sender),
            )
        if self.on_discovered is not None:
            self.on_discovered(packet, tick)


class InquiryProcedure:
    """A master running device discovery on a given transmit schedule.

    Reception is kept by a :class:`_Reception` whose methods the channel
    calls: :meth:`_Reception.on_fhs` takes a lone response with its
    packet, :meth:`_Reception.on_repeat` a known sender's repeat without
    one, and :meth:`_Reception.on_passes` a steady train pass's lone
    responses replayed over several passes at once.  The counters and
    the listener are read and set here.  Reception spans go to the
    kernel's tracer, :attr:`Kernel.spans`.
    """

    def __init__(
        self,
        kernel: Kernel,
        schedule: InquiryTransmitSchedule,
        name: str = "master",
        reachable: Optional[ReachabilityPredicate] = None,
        receiver_capture: bool = True,
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self.name = name
        rx = _Reception(name, schedule.windows, receiver_capture, kernel.spans)
        self._rx = rx
        self._on_fhs = rx.on_fhs
        self.channel = ResponseChannel(kernel, receiver=rx.on_fhs, reachable=reachable, name=name)
        self.channel.repeat_receiver = rx.on_repeat
        self.channel.pass_receiver = rx.on_passes
        self._results = rx.results
        #: Tick of the most recent successful response per device —
        #: duplicates included, so a tracker can tell "seen this window"
        #: apart from "first discovered long ago".
        self.last_seen = rx.last_seen

    @property
    def on_discovered(self) -> Optional[DiscoveryListener]:
        """Called on each *new* device discovery (settable)."""
        return self._rx.on_discovered

    @on_discovered.setter
    def on_discovered(self, listener: Optional[DiscoveryListener]) -> None:
        self._rx.on_discovered = listener

    @property
    def responses_received(self) -> int:
        """Lone responses the receiver took, repeats included."""
        return self._rx.received

    @property
    def responses_missed(self) -> int:
        """Responses that arrived while the master was not listening."""
        return self._rx.missed

    @property
    def responses_blocked(self) -> int:
        """Responses lost because the receiver was busy."""
        return self._rx.blocked

    @property
    def discoveries(self) -> int:
        """First sightings; a forgotten device counts again when it is
        next heard.  Unlike :attr:`discovered_count`, never shrinks."""
        return self._rx.discoveries

    # -- queries -----------------------------------------------------------

    @property
    def results(self) -> list[InquiryResult]:
        """All discoveries so far, in discovery order."""
        return sorted(self._results.values(), key=lambda r: r.discovered_tick)

    @property
    def discovered_count(self) -> int:
        """Number of distinct devices discovered."""
        return len(self._results)

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
