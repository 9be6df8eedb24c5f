"""Tests for the round-robin link scheduler."""

from __future__ import annotations

import pytest

from repro.bluetooth.link import (
    DM1_PAYLOAD_BYTES,
    AppMessage,
    RoundRobinLinkScheduler,
)
from repro.sim.clock import ticks_from_seconds


class TestAppMessage:
    def test_rounds_needed(self):
        assert AppMessage(17, 0).rounds_needed == 1
        assert AppMessage(18, 0).rounds_needed == 2
        assert AppMessage(500, 0).rounds_needed == 30

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            AppMessage(0, 0)

    def test_latency_only_when_delivered(self):
        message = AppMessage(17, 100)
        assert message.latency_seconds is None
        message.delivered_tick = 100 + 3200
        assert message.latency_seconds == 1.0


class TestScheduler:
    def test_single_slave_gets_all_rounds(self):
        scheduler = RoundRobinLinkScheduler()
        scheduler.attach("s1")
        message = scheduler.enqueue("s1", 170, tick=0)  # 10 rounds
        delivered = scheduler.serve_window(0, 10 * 4)  # exactly 10 rounds
        assert delivered == 170
        assert message.delivered
        assert message.delivered_tick == 40

    def test_round_robin_fairness(self):
        scheduler = RoundRobinLinkScheduler()
        for slave_id in ("a", "b"):
            scheduler.attach(slave_id)
            scheduler.enqueue(slave_id, 1700, tick=0)
        scheduler.serve_window(0, 100 * 4)  # 100 rounds -> 50 each
        assert scheduler.state_of("a").bytes_delivered == 50 * DM1_PAYLOAD_BYTES
        assert scheduler.state_of("b").bytes_delivered == 50 * DM1_PAYLOAD_BYTES

    def test_keep_alive_polls_when_idle(self):
        scheduler = RoundRobinLinkScheduler()
        scheduler.attach("s1")
        delivered = scheduler.serve_window(0, 40)
        assert delivered == 0
        assert scheduler.state_of("s1").idle_polls == 10

    def test_message_spans_windows(self):
        scheduler = RoundRobinLinkScheduler()
        scheduler.attach("s1")
        message = scheduler.enqueue("s1", 170, tick=0)  # 10 rounds
        scheduler.serve_window(0, 6 * 4)  # only 6 rounds fit
        assert not message.delivered
        assert message.bytes_sent == 6 * DM1_PAYLOAD_BYTES
        scheduler.serve_window(100, 100 + 6 * 4)
        assert message.delivered

    def test_fifo_per_slave(self):
        scheduler = RoundRobinLinkScheduler()
        scheduler.attach("s1")
        first = scheduler.enqueue("s1", 17, tick=0)
        second = scheduler.enqueue("s1", 17, tick=0)
        scheduler.serve_window(0, 4)
        assert first.delivered and not second.delivered

    def test_empty_wheel_idles(self):
        scheduler = RoundRobinLinkScheduler()
        assert scheduler.serve_window(0, 1000) == 0
        assert scheduler.slots_idle == 500

    def test_detach_drops_queue(self):
        scheduler = RoundRobinLinkScheduler()
        scheduler.attach("s1")
        scheduler.enqueue("s1", 17, tick=0)
        state = scheduler.detach("s1")
        assert state is not None and len(state.queue) == 1
        assert scheduler.slave_count == 0
        assert scheduler.detach("s1") is None

    def test_invalid_window(self):
        scheduler = RoundRobinLinkScheduler()
        with pytest.raises(ValueError):
            scheduler.serve_window(100, 50)

