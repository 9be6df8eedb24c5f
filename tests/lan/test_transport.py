"""Tests for the simulated Ethernet transport."""

from __future__ import annotations

import pytest

from repro.lan.transport import LANTransport, UnknownEndpointError, latency_ticks
from repro.sim.rng import RandomStream


class TestLatencyModel:
    def test_draw_at_least_one_tick(self):
        # 0.3 ms is 0.96 ticks: rounded, and never below one tick.
        assert latency_ticks(None) == 1

    def test_jitter_within_bounds(self):
        rng = RandomStream(1, "lat")
        draws = {latency_ticks(rng) for _ in range(200)}
        # 0.3-0.5 ms = 0.96-1.6 ticks -> one or two ticks.
        assert draws == {1, 2}


class TestTransport:
    def test_delivery_with_latency(self, kernel):
        transport = LANTransport(kernel)
        received = []
        transport.register("server", lambda src, msg: received.append((src, msg, kernel.now)))
        transport.send("ws", "server", "hello")
        assert received == []  # not delivered synchronously
        kernel.run_until(100)
        assert len(received) == 1
        src, msg, tick = received[0]
        assert (src, msg) == ("ws", "hello")
        assert tick >= 1

    def test_unknown_destination_raises(self, kernel):
        transport = LANTransport(kernel)
        with pytest.raises(UnknownEndpointError):
            transport.send("a", "ghost", "x")

    def test_duplicate_registration_rejected(self, kernel):
        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        with pytest.raises(ValueError):
            transport.register("server", lambda s, m: None)

    def test_unregister_drops_in_flight(self, kernel):
        transport = LANTransport(kernel)
        received = []
        transport.register("server", lambda s, m: received.append(m))
        transport.send("ws", "server", "x")
        transport.unregister("server")
        kernel.run_until(100)
        assert received == []
        assert transport.stats.dropped == 1

    def test_loss(self, kernel):
        transport = LANTransport(
            kernel, loss_probability=0.5, rng=RandomStream(3, "lan")
        )
        received = []
        transport.register("server", lambda s, m: received.append(m))
        for i in range(200):
            transport.send("ws", "server", i)
        kernel.run_until(1000)
        assert transport.stats.dropped > 50
        assert len(received) == 200 - transport.stats.dropped

    def test_lossy_transport_requires_rng(self, kernel):
        with pytest.raises(ValueError):
            LANTransport(kernel, loss_probability=0.1)

    def test_stats_by_type(self, kernel):
        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        transport.send("a", "server", "text")
        transport.send("a", "server", 42)
        assert transport.stats.by_type == {"str": 1, "int": 1}

    def test_fifo_per_same_latency(self, kernel):
        # No rng: every message takes the same jitter-free latency.
        transport = LANTransport(kernel)
        received = []
        transport.register("server", lambda s, m: received.append(m))
        for i in range(5):
            transport.send("a", "server", i)
        kernel.run_until(100)
        assert received == [0, 1, 2, 3, 4]

    def test_endpoint_names(self, kernel):
        transport = LANTransport(kernel)
        transport.register("a", lambda s, m: None)
        transport.register("b", lambda s, m: None)
        assert set(transport.endpoint_names) == {"a", "b"}
