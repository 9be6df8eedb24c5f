"""Tests for the simulated Ethernet transport."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, get_type_hints

import pytest

import repro.lan.messages as messages
from repro.bluetooth.address import BDAddr
from repro.lan.transport import (
    _FRAME_OVERHEAD_BYTES,
    LANTransport,
    UnknownEndpointError,
    _field_bytes,
    _wire_plan,
    latency_ticks,
)
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

    def test_transport_draws_what_latency_ticks_draws(self, kernel):
        # The send path draws its jitter inline: the same stream
        # position, the same ticks, as latency_ticks on a twin stream.
        transport = LANTransport(kernel, rng=RandomStream(5, "lan"))
        twin = RandomStream(5, "lan")
        delivered = []
        transport.register("server", lambda src, msg: delivered.append(kernel.now - msg))
        for _ in range(300):
            transport.send("ws", "server", kernel.now)
            kernel.run_until(kernel.now + 8)
        assert delivered == [latency_ticks(twin) for _ in range(300)]
        assert transport.rng.random() == twin.random()
        assert transport.stats.latencies == {
            ticks: delivered.count(ticks) for ticks in set(delivered)
        }


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


def _generic_wire_bytes(message) -> int:
    """The modelled size by the per-field rule over every field."""
    names = [spec.name for spec in fields(message)] if is_dataclass(message) else []
    return _FRAME_OVERHEAD_BYTES + sum(_field_bytes(getattr(message, name)) for name in names)


#: Field values per declared type: ASCII and non-ASCII text, None,
#: empty and non-empty tuples, both booleans.
_VALUES = {
    int: (7, 0, 123_456),
    float: (12.5, 0.0, 3.0),
    bool: (True, False, True),
    str: ("lab-1", "", "salle-\u00e9t\u00e9-\u90e8\u5c4b"),
    Optional[str]: (None, "corridor", "caf\u00e9"),
    BDAddr: (BDAddr(0x0A_0000_0001), BDAddr(0), BDAddr(0xFFFF_FFFF_FFFF)),
    tuple[str, ...]: ((), ("lab-1", "corridor"), ("\u00e9", "lab-2", "x")),
}

_MESSAGE_TYPES = [
    cls
    for _, cls in inspect.getmembers(messages, inspect.isclass)
    if is_dataclass(cls) and cls.__module__ == messages.__name__
]


class TestWireSize:
    def test_every_message_type_is_covered(self):
        assert len(_MESSAGE_TYPES) == 8
        for cls in _MESSAGE_TYPES:
            assert set(get_type_hints(cls).values()) <= set(_VALUES), cls

    @pytest.mark.parametrize("cls", _MESSAGE_TYPES, ids=lambda cls: cls.__name__)
    def test_per_type_plan_equals_the_per_field_rule(self, kernel, cls):
        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        hints = get_type_hints(cls)
        for variant in range(3):
            message = cls(**{name: _VALUES[hint][variant] for name, hint in hints.items()})
            before = transport.stats.bytes_sent
            transport.send("ws", "server", message)
            assert transport.stats.bytes_sent - before == _generic_wire_bytes(message)

    def test_unresolvable_annotations_measure_every_field(self, kernel):
        class Local:
            pass

        @dataclass(frozen=True)
        class Odd:
            tag: Local
            count: int

        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        for message in (Odd(tag=Local(), count=3), Odd(tag=None, count="text")):
            before = transport.stats.bytes_sent
            transport.send("ws", "server", message)
            assert transport.stats.bytes_sent - before == _generic_wire_bytes(message)

    def test_an_address_is_one_fixed_field(self):
        # A BDAddr is a tuple: it must not be measured as a sequence.
        assert _field_bytes(BDAddr(0)) == 8
        assert _field_bytes(BDAddr(0xFFFF_FFFF_FFFF)) == 8

    def test_an_optional_address_field_is_measured_as_an_address(self, kernel):
        @dataclass(frozen=True)
        class Handoff:
            device: Optional[BDAddr]
            room_id: str

        assert _wire_plan(Handoff) == (_FRAME_OVERHEAD_BYTES, ("device", "room_id"))
        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        for message in (Handoff(BDAddr(0x0A_0000_0001), "lab-1"), Handoff(None, "")):
            before = transport.stats.bytes_sent
            transport.send("ws", "server", message)
            assert transport.stats.bytes_sent - before == _generic_wire_bytes(message)
        # 32 frame + 8 address + 5 for "lab-1", then 32 + 1 for None.
        assert transport.stats.bytes_sent == 45 + 33

    def test_a_non_dataclass_message_is_one_frame(self, kernel):
        transport = LANTransport(kernel)
        transport.register("server", lambda s, m: None)
        transport.send("ws", "server", "hello")
        transport.send("ws", "server", 42)
        assert transport.stats.bytes_sent == 2 * _FRAME_OVERHEAD_BYTES
