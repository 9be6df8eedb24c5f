"""The inquiry-response channel with collision handling.

This is the mechanism the paper's authors added to BlueHoc: when two
slaves transmit FHS inquiry responses in the same half-slot on the same
RF channel, the packets collide at the master and neither is received.

The rule lives in one place, :meth:`ResponseChannel.resolve`: given one
``(tick, rf_channel)`` group of transmitters in announce order, it drops
those the reachability predicate rejects, then delivers a lone survivor
and records two or more as a collision.  It builds no packet and calls
no receiver; the caller does that for the survivor it names.  The
inquiry-scan swarm keeps its own groups as row indices and resolves each
at its tick.  :meth:`ResponseChannel.schedule_fhs` and
:meth:`ResponseChannel.schedule_fhs_batch` file packets into groups the
channel keeps, and :meth:`ResponseChannel.deliver` resolves one of those
and hands its survivor to the receiver.  The channel posts no kernel
events: whoever opened a group delivers it at its tick, in its own
event order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Sequence, Sized

from repro.bluetooth.packets import FHSPacket
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel


class CollisionRecord(NamedTuple):
    """One collision event: who clashed, where and when.

    Keeps the senders' addresses as they are and formats them only when
    :attr:`senders` is read: 124,165 collisions in one benchmark run of
    the paper artefacts, almost none of them ever read.  A named tuple
    builds faster than a frozen dataclass, and is just as immutable.
    """

    tick: int
    rf_channel: int
    addresses: tuple[object, ...]  # the senders' BDAddrs, in announce order

    @property
    def senders(self) -> tuple[str, ...]:
        """The senders' addresses, formatted."""
        return tuple(str(address) for address in self.addresses)


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

#: Takes a delivered FHS without its packet: ``callback(sender, tick)``
#: returns True when it took it (see :attr:`ResponseChannel.repeat_receiver`).
RepeatReceiver = Callable[[Any, int], bool]

#: Optional reachability predicate: ``reachable(packet, tick) -> bool``.
ReachabilityPredicate = Callable[[FHSPacket, int], bool]


class ResponseChannel:
    """The collision rule and counters of the FHS responses to one master.

    Every piconet master owns one instance.  Scanners announce each
    response with the future tick at which it occupies the air, and the
    group of same-tick, same-channel responses is resolved at that tick
    (:meth:`resolve`).  Delivery is caller-driven: whoever opens a
    ``(tick, channel)`` group resolves it at that tick, in its own event
    order.
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
        self.receiver = receiver
        self.reachable = reachable
        #: Set by an owner that can take a lone response from a sender it
        #: already knows without the packet.  Callers that keep their own
        #: groups try it before building the packet for :attr:`receiver`;
        #: it declines (returns False) whenever the packet is needed.
        self.repeat_receiver: Optional[RepeatReceiver] = None
        self.name = name
        self.stats = ChannelStats()
        self._pending: dict[tuple[int, int], list[FHSPacket]] = {}

    @hot_path
    def announce(self, tick: int, transmitters: Sized) -> None:
        """Count ``transmitters``, responses that will be on the air at
        ``tick``, for a caller that keeps their group itself."""
        if tick < self._clock._now:
            raise ValueError(
                f"FHS scheduled in the past: tick={tick}, now={self._kernel.now}"
            )
        self.stats.transmissions += len(transmitters)

    def schedule_fhs(self, tick: int, rf_channel: int, packet: FHSPacket) -> bool:
        """Announce that ``packet`` will be on ``rf_channel`` at ``tick``.

        Returns True when the announcement opened a new ``(tick,
        channel)`` group, which the caller must :meth:`deliver` at
        ``tick``; later announcements for the same pair join the
        (potential) collision group and return False.
        """
        return self.schedule_fhs_batch(tick, rf_channel, (packet,))

    def schedule_fhs_batch(
        self, tick: int, rf_channel: int, packets: Sequence[FHSPacket]
    ) -> bool:
        """Announce several same-``(tick, channel)`` packets in one pass.

        ``packets`` is copied.  Returns True when the batch opened a new
        group (the caller delivers it); an empty batch opens nothing.
        """
        if not packets:
            return False
        self.announce(tick, packets)
        key = (tick, rf_channel)
        group = self._pending.get(key)
        if group is None:
            self._pending[key] = list(packets)
            return True
        group.extend(packets)
        return False

    def deliver(self, tick: int, rf_channel: int) -> None:
        """Resolve the announced ``(tick, rf_channel)`` group: a lone
        reachable response reaches the receiver, two or more collide."""
        group = self._pending.pop((tick, rf_channel))
        senders = [packet.sender for packet in group]
        lone = self.resolve(tick, rf_channel, range(len(group)), senders, group)
        if lone >= 0:
            self.receiver(group[lone], tick)

    @hot_path
    def resolve(
        self,
        tick: int,
        rf_channel: int,
        group: Sequence[int],
        addresses: Sequence[object],
        packets: Sequence[FHSPacket] = (),
    ) -> int:
        """Apply the collision rule to one ``(tick, rf_channel)`` group.

        ``group`` lists the transmitters in announce order, as indices
        into ``addresses``.  ``packets`` holds their packets in the same
        order; only the reachability predicate reads it, once per
        transmitter in that order, so it is required only when the
        channel has one.  Returns the position in ``group`` of the lone
        response that reaches the master, or -1 when none does: all were
        filtered out, or two or more collided.
        """
        count = len(group)
        reachable = self.reachable
        if reachable is None:
            if count == 1:
                self.stats.delivered += 1
                return 0
            kept: Sequence[int] = range(count)
        else:
            kept = [index for index in range(count) if reachable(packets[index], tick)]  # lint: disable=PERF001 -- only under a fault plan; the clean path never filters
            self.stats.filtered += count - len(kept)
            count = len(kept)
            if count == 1:
                self.stats.delivered += 1
                return kept[0]
        if count:
            # Announced groups are never empty: only filtering empties one.
            self.stats.collided += count
            self.stats.collisions.append(
                CollisionRecord(
                    tick, rf_channel, tuple(addresses[group[index]] for index in kept)
                )
            )
        return -1

    def __repr__(self) -> str:
        return (
            f"ResponseChannel(name={self.name!r}, tx={self.stats.transmissions}, "
            f"delivered={self.stats.delivered}, collided={self.stats.collided})"
        )
