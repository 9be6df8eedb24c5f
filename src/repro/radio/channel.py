"""The inquiry-response channel with collision handling.

This is the mechanism the paper's authors added to BlueHoc: when two
slaves transmit FHS inquiry responses in the same half-slot on the same
RF channel, the packets collide at the master and neither is received.

Slaves announce their responses ahead of delivery; the channel groups
them by ``(tick, rf_channel)``.  The channel posts no kernel events: the
caller that opened a group (the announce that returned True) delivers
it at its tick with :meth:`ResponseChannel.deliver`, where a lone
response reaches the receiver and two or more collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.bluetooth.packets import FHSPacket
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class CollisionRecord:
    """One collision event: who clashed, where and when."""

    tick: int
    rf_channel: int
    senders: tuple[str, ...]


@dataclass
class ChannelStats:
    """Counters the channel maintains for analysis."""

    transmissions: int = 0
    delivered: int = 0
    collided: int = 0
    filtered: int = 0  # dropped by the reachability predicate
    collisions: list[CollisionRecord] = field(default_factory=list)

    @property
    def collision_events(self) -> int:
        """Number of distinct collision events (not packets lost)."""
        return len(self.collisions)


#: Receives a successfully delivered FHS: ``callback(packet, tick)``.
FHSReceiver = Callable[[FHSPacket, int], None]

#: Optional reachability predicate: ``reachable(packet, tick) -> bool``.
ReachabilityPredicate = Callable[[FHSPacket, int], bool]


class ResponseChannel:
    """Collects FHS inquiry responses addressed to one master.

    Every piconet master owns one instance.  Scanners call
    :meth:`schedule_fhs` with the future tick at which their response
    packet occupies the air; the channel resolves simultaneous same-
    channel transmissions as collisions at delivery time.  Delivery is
    caller-driven: whoever opens a ``(tick, channel)`` group calls
    :meth:`deliver` for it at that tick, in its own event order.
    """

    def __init__(
        self,
        kernel: Kernel,
        receiver: FHSReceiver,
        reachable: Optional[ReachabilityPredicate] = None,
        name: str = "channel",
    ) -> None:
        self._kernel = kernel
        self._clock = kernel.clock
        self._receiver = receiver
        self._reachable = reachable
        self.name = name
        self.stats = ChannelStats()
        self._pending: dict[tuple[int, int], list[FHSPacket]] = {}

    def schedule_fhs(self, tick: int, rf_channel: int, packet: FHSPacket) -> bool:
        """Announce that ``packet`` will be on ``rf_channel`` at ``tick``.

        Returns True when the announcement opened a new ``(tick,
        channel)`` group, which the caller must :meth:`deliver` at
        ``tick``; later announcements for the same pair join the
        (potential) collision group and return False.
        """
        if tick < self._clock._now:
            raise ValueError(
                f"FHS scheduled in the past: tick={tick}, now={self._kernel.now}"
            )
        self.stats.transmissions += 1
        key = (tick, rf_channel)
        group = self._pending.get(key)
        if group is None:
            self._pending[key] = [packet]
            return True
        group.append(packet)
        return False

    @hot_path
    def schedule_fhs_batch(
        self, tick: int, rf_channel: int, packets: Sequence[FHSPacket]
    ) -> bool:
        """Announce several same-``(tick, channel)`` packets in one pass.

        The inquiry-scan swarm's batched collision path: all concurrent
        transmissions land in the collision group with one bookkeeping
        pass, instead of N calls to :meth:`schedule_fhs`.  ``packets``
        is copied — callers reuse their batch buffer.  Returns True when
        the batch opened a new group (the caller delivers it); an empty
        batch opens nothing.
        """
        count = len(packets)
        if count == 0:
            return False
        if tick < self._clock._now:
            raise ValueError(
                f"FHS scheduled in the past: tick={tick}, now={self._kernel.now}"
            )
        self.stats.transmissions += count
        key = (tick, rf_channel)
        group = self._pending.get(key)
        if group is None:
            self._pending[key] = list(packets)
            return True
        group.extend(packets)
        return False

    @hot_path
    def deliver(self, tick: int, rf_channel: int) -> None:
        """Resolve the ``(tick, rf_channel)`` group: a lone reachable
        response reaches the receiver, two or more collide."""
        group = self._pending.pop((tick, rf_channel))
        reachable = self._reachable
        if reachable is not None:
            in_range = [pkt for pkt in group if reachable(pkt, tick)]  # lint: disable=PERF001 -- only under a fault plan; the clean path never filters
            self.stats.filtered += len(group) - len(in_range)
            group = in_range
            if not group:
                return
        # Announced groups are never empty: only filtering empties one.
        if len(group) == 1:
            self.stats.delivered += 1
            self._receiver(group[0], tick)
            return
        self.stats.collided += len(group)
        self.stats.collisions.append(
            CollisionRecord(
                tick=tick,
                rf_channel=rf_channel,
                senders=tuple([pkt.sender.format() for pkt in group]),  # lint: disable=PERF001 -- one record per collision, the artefact itself
            )
        )

    @property
    def pending_count(self) -> int:
        """Number of announced but undelivered transmissions."""
        return sum(
            len(group) for group in self._pending.values()  # lint: disable=DET003 -- commutative sum; order cannot reach the result
        )

    def __repr__(self) -> str:
        return (
            f"ResponseChannel(name={self.name!r}, tx={self.stats.transmissions}, "
            f"delivered={self.stats.delivered}, collided={self.stats.collided})"
        )
