"""The inquiry-response channel with collision handling.

This is the mechanism the paper's authors added to BlueHoc: when two
slaves transmit FHS inquiry responses in the same half-slot on the same
RF channel, the packets collide at the master and neither is received.

Slaves announce their responses ahead of delivery; the channel groups
them by ``(tick, rf_channel)`` and delivers each group in a single
kernel event: a lone response reaches the receiver, two or more collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    channel transmissions as collisions at delivery time.
    """

    def __init__(
        self,
        kernel: Kernel,
        receiver: FHSReceiver,
        reachable: Optional[ReachabilityPredicate] = None,
        name: str = "channel",
    ) -> None:
        self._kernel = kernel
        self._receiver = receiver
        self._reachable = reachable
        self.name = name
        self.stats = ChannelStats()
        self._pending: dict[tuple[int, int], list[FHSPacket]] = {}
        self._fhs_label = f"fhs:{name}"

    def schedule_fhs(self, tick: int, rf_channel: int, packet: FHSPacket) -> None:
        """Announce that ``packet`` will be on ``rf_channel`` at ``tick``.

        The first announcement for a ``(tick, channel)`` pair schedules
        the delivery event; later announcements for the same pair join
        the (potential) collision group.
        """
        if tick < self._kernel.now:
            raise ValueError(
                f"FHS scheduled in the past: tick={tick}, now={self._kernel.now}"
            )
        self.stats.transmissions += 1
        key = (tick, rf_channel)
        group = self._pending.get(key)
        if group is None:
            self._pending[key] = [packet]
            # Delivery events are never cancelled, so take the kernel's
            # handle-free fast path.
            self._kernel.post_at(
                tick, lambda: self._deliver(key), label=self._fhs_label
            )
        else:
            group.append(packet)

    @hot_path
    def schedule_fhs_batch(
        self, tick: int, rf_channel: int, packets: Sequence[FHSPacket]
    ) -> None:
        """Announce several same-``(tick, channel)`` packets in one pass.

        The inquiry-scan swarm's batched collision path: all concurrent
        transmissions land in the collision group with one bookkeeping
        pass and at most one kernel event, instead of N calls to
        :meth:`schedule_fhs`.  ``packets`` is copied — callers reuse
        their batch buffer across advances.
        """
        count = len(packets)
        if count == 0:
            return
        if tick < self._kernel.now:
            raise ValueError(
                f"FHS scheduled in the past: tick={tick}, now={self._kernel.now}"
            )
        self.stats.transmissions += count
        key = (tick, rf_channel)
        group = self._pending.get(key)
        if group is None:
            self._pending[key] = list(packets)
            # Delivery events are never cancelled, so take the kernel's
            # handle-free fast path.  partial, not a lambda: this is a
            # PERF001-audited hot path.
            self._kernel.post_at(tick, partial(self._deliver, key), label=self._fhs_label)
        else:
            group.extend(packets)

    def _deliver(self, key: tuple[int, int]) -> None:
        tick, rf_channel = key
        group = self._pending.pop(key)
        if self._reachable is not None:
            in_range = [pkt for pkt in group if self._reachable(pkt, tick)]
            self.stats.filtered += len(group) - len(in_range)
            group = in_range
        if not group:
            return
        if len(group) == 1:
            self.stats.delivered += 1
            self._receiver(group[0], tick)
            return
        self.stats.collided += len(group)
        self.stats.collisions.append(
            CollisionRecord(
                tick=tick,
                rf_channel=rf_channel,
                senders=tuple(str(pkt.sender) for pkt in group),
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
