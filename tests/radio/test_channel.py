"""Tests for the FHS collision channel.

The channel posts no kernel events: an announce returns whether it
opened a new ``(tick, channel)`` group, and the test delivers each group
itself with ``deliver(tick, rf_channel)``, as its opener would.
``resolve`` is the collision rule alone, over a group the caller keeps.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.packets import FHSPacket
from repro.radio.channel import ResponseChannel


def fhs(sender_value: int, tick: int, channel: int = 0) -> FHSPacket:
    return FHSPacket(sender=BDAddr(sender_value), clkn=0, channel=channel, tx_tick=tick)


class TestDelivery:
    def test_lone_response_delivered(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append((pkt, tick)))
        assert channel.schedule_fhs(100, 7, fhs(1, 100, 7)) is True
        channel.deliver(100, 7)
        assert len(received) == 1
        assert received[0][1] == 100
        assert channel.stats.delivered == 1

    def test_same_tick_same_channel_collides(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        assert channel.schedule_fhs(100, 7, fhs(1, 100, 7)) is True
        assert channel.schedule_fhs(100, 7, fhs(2, 100, 7)) is False
        channel.deliver(100, 7)
        assert received == []
        assert channel.stats.collided == 2
        assert channel.stats.collision_events == 1
        record = channel.stats.collisions[0]
        assert record.tick == 100 and record.rf_channel == 7
        assert len(record.senders) == 2

    def test_three_way_collision(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        for sender in (1, 2, 3):
            channel.schedule_fhs(100, 7, fhs(sender, 100, 7))
        channel.deliver(100, 7)
        assert received == []
        assert channel.stats.collided == 3
        assert channel.stats.collision_events == 1

    def test_same_tick_different_channels_no_collision(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        assert channel.schedule_fhs(100, 7, fhs(1, 100, 7)) is True
        assert channel.schedule_fhs(100, 8, fhs(2, 100, 8)) is True
        channel.deliver(100, 7)
        channel.deliver(100, 8)
        assert len(received) == 2

    def test_same_channel_different_ticks_no_collision(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        assert channel.schedule_fhs(100, 7, fhs(1, 100, 7)) is True
        assert channel.schedule_fhs(132, 7, fhs(2, 132, 7)) is True
        channel.deliver(100, 7)
        channel.deliver(132, 7)
        assert len(received) == 2

    def test_scheduling_in_past_rejected(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        kernel.run_until(100)
        with pytest.raises(ValueError):
            channel.schedule_fhs(50, 7, fhs(1, 50, 7))

    def test_channel_posts_no_kernel_events(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        channel.schedule_fhs(100, 7, fhs(1, 100, 7))
        channel.schedule_fhs_batch(101, 7, [fhs(2, 101, 7)])
        assert kernel.pending_events == 0
        kernel.run_until(200)
        assert list(channel._pending) == [(100, 7), (101, 7)]


class TestBatchAnnounce:
    """schedule_fhs_batch: the inquiry-scan swarm's batched announce."""

    def test_batch_equals_sequential(self):
        from repro.sim.kernel import Kernel

        results = []
        for batched in (False, True):
            kernel = Kernel()
            received = []
            channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
            packets = [fhs(sender, 100, 7) for sender in (1, 2, 3)]
            if batched:
                opened = [channel.schedule_fhs_batch(100, 7, packets)]
            else:
                opened = [channel.schedule_fhs(100, 7, packet) for packet in packets]
            assert opened == [True] + [False] * (len(opened) - 1)
            channel.deliver(100, 7)
            stats = channel.stats
            collisions = tuple(
                (c.tick, c.rf_channel, c.senders) for c in stats.collisions
            )
            results.append(
                (received, stats.transmissions, stats.delivered, stats.collided, collisions)
            )
        assert results[0] == results[1]

    def test_batch_of_one_delivered(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append((pkt, tick)))
        assert channel.schedule_fhs_batch(100, 7, [fhs(1, 100, 7)]) is True
        channel.deliver(100, 7)
        assert len(received) == 1
        assert channel.stats.delivered == 1
        assert channel.stats.transmissions == 1

    def test_empty_batch_is_noop(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        assert channel.schedule_fhs_batch(100, 7, []) is False
        assert channel.stats.transmissions == 0
        assert not channel._pending
        with pytest.raises(KeyError):
            channel.deliver(100, 7)  # an empty batch opens no group

    def test_batch_joins_existing_group(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        assert channel.schedule_fhs(100, 7, fhs(1, 100, 7)) is True
        assert channel.schedule_fhs_batch(100, 7, [fhs(2, 100, 7), fhs(3, 100, 7)]) is False
        channel.deliver(100, 7)
        assert received == []
        assert channel.stats.collided == 3
        assert channel.stats.collision_events == 1
        # Announce order is preserved: singleton first, then the batch.
        assert channel.stats.collisions[0].senders == (
            str(BDAddr(1)),
            str(BDAddr(2)),
            str(BDAddr(3)),
        )

    def test_batch_copies_caller_buffer(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        buffer = [fhs(1, 100, 7)]
        channel.schedule_fhs_batch(100, 7, buffer)
        buffer.clear()  # callers reuse their batch list between buckets
        channel.deliver(100, 7)
        assert len(received) == 1

    def test_batch_in_past_rejected(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        kernel.run_until(100)
        with pytest.raises(ValueError):
            channel.schedule_fhs_batch(50, 7, [fhs(1, 50, 7)])
        assert channel.stats.transmissions == 0


class TestResolve:
    """resolve: the collision rule over a group the caller keeps."""

    ADDRESSES = [BDAddr(10), BDAddr(11), BDAddr(12)]

    def test_lone_transmitter_is_delivered(self, kernel):
        received = []
        channel = ResponseChannel(kernel, lambda pkt, tick: received.append(pkt))
        assert channel.resolve(100, 7, [2], self.ADDRESSES) == 0
        assert channel.stats.delivered == 1
        assert received == []  # the caller hands the survivor on

    def test_group_collides_with_senders_in_group_order(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        assert channel.resolve(100, 7, [2, 0], self.ADDRESSES) == -1
        assert channel.stats.collided == 2
        (record,) = channel.stats.collisions
        assert (record.tick, record.rf_channel) == (100, 7)
        assert record.addresses == (BDAddr(12), BDAddr(10))
        assert record.senders == (str(BDAddr(12)), str(BDAddr(10)))

    def test_filter_names_the_survivor_by_position(self, kernel):
        asked = []

        def reachable(pkt, tick):
            asked.append(pkt.sender)
            return pkt.sender != BDAddr(10)

        channel = ResponseChannel(kernel, lambda pkt, tick: None, reachable=reachable)
        packets = [fhs(10, 100, 7), fhs(11, 100, 7)]
        assert channel.resolve(100, 7, [0, 1], self.ADDRESSES, packets) == 1
        assert asked == [BDAddr(10), BDAddr(11)]  # once each, in group order
        assert (channel.stats.filtered, channel.stats.delivered) == (1, 1)

    def test_announce_counts_and_rejects_the_past(self, kernel):
        channel = ResponseChannel(kernel, lambda pkt, tick: None)
        channel.announce(100, [0, 1, 2])
        assert channel.stats.transmissions == 3
        kernel.run_until(200)
        with pytest.raises(ValueError):
            channel.announce(150, [0])
        assert channel.stats.transmissions == 3


class TestReachability:
    def test_out_of_range_filtered(self, kernel):
        received = []
        channel = ResponseChannel(
            kernel,
            lambda pkt, tick: received.append(pkt),
            reachable=lambda pkt, tick: pkt.sender != BDAddr(2),
        )
        channel.schedule_fhs(100, 7, fhs(1, 100, 7))
        channel.schedule_fhs(132, 7, fhs(2, 132, 7))
        channel.deliver(100, 7)
        channel.deliver(132, 7)
        assert [p.sender for p in received] == [BDAddr(1)]
        assert channel.stats.filtered == 1

    def test_out_of_range_does_not_cause_collision(self, kernel):
        """An unreachable transmitter cannot corrupt a reachable one."""
        received = []
        channel = ResponseChannel(
            kernel,
            lambda pkt, tick: received.append(pkt),
            reachable=lambda pkt, tick: pkt.sender == BDAddr(1),
        )
        channel.schedule_fhs(100, 7, fhs(1, 100, 7))
        channel.schedule_fhs(100, 7, fhs(2, 100, 7))
        channel.deliver(100, 7)
        assert [p.sender for p in received] == [BDAddr(1)]
        assert channel.stats.collision_events == 0

    def test_all_filtered_delivers_nothing(self, kernel):
        received = []
        channel = ResponseChannel(
            kernel, lambda pkt, tick: received.append(pkt),
            reachable=lambda pkt, tick: False,
        )
        channel.schedule_fhs(100, 7, fhs(1, 100, 7))
        channel.deliver(100, 7)
        assert received == []
        assert channel.stats.filtered == 1
