"""Transport-level reliable delivery under injected faults.

Covers the retry/ack/dedup machinery of ``LANTransport.send_reliable``
and the declared fault-injection seam (``fault_injector=...``).  A
scripted injector stands in for the seeded one so each test exercises
exactly one fault shape.
"""

from __future__ import annotations

import pytest

from repro.faults import NO_FAULT, FaultDecision
from repro.lan.transport import (
    RETRY_MAX_ATTEMPTS,
    DeliveryAck,
    LANTransport,
    UnknownEndpointError,
)

LONG = 100_000  # run well past every retry timer


class ScriptedFaults:
    """A fault injector fake driving the declared seam from a script.

    ``script`` maps message index (in decide order, data and acks
    alike) to a :class:`FaultDecision`; everything else passes clean.
    """

    def __init__(self, script):
        self.script = dict(script)
        self.calls = []

    def decide(self, now, source, destination, message):
        index = len(self.calls)
        self.calls.append((now, source, destination, message))
        return self.script.get(index, NO_FAULT)


def _rig(kernel, faults=None):
    # No rng: latency and retry timeouts carry no jitter.
    transport = LANTransport(kernel, fault_injector=faults)
    received = []
    transport.register("server", lambda src, msg: received.append(msg))
    transport.register("ws:lab-1", lambda src, msg: None)
    return transport, received


class TestEndpointSemantics:
    def test_never_registered_destination_raises(self, kernel):
        transport, _ = _rig(kernel)
        with pytest.raises(UnknownEndpointError):
            transport.send_reliable("ws:lab-1", "ghost", "delta")

    def test_known_but_down_destination_drops_silently(self, kernel):
        transport, received = _rig(kernel)
        transport.unregister("server")
        transport.send("ws:lab-1", "server", "delta")  # no raise
        kernel.run_until(LONG)
        assert received == []
        assert transport.stats.dropped == 1


class TestFaultSeam:
    def test_drop_decision_loses_the_message(self, kernel):
        faults = ScriptedFaults({0: FaultDecision(drop=True)})
        transport, received = _rig(kernel, faults)
        transport.send("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == []
        assert transport.stats.dropped == 1

    def test_delay_decision_postpones_delivery(self, kernel):
        faults = ScriptedFaults({0: FaultDecision(extra_delay_ticks=500)})
        transport, _ = _rig(kernel, faults)
        arrival = []
        transport.register("sink", lambda s, m: arrival.append(kernel.now))
        transport.send("ws:lab-1", "sink", "delta")
        kernel.run_until(LONG)
        assert arrival and arrival[0] >= 500

    def test_duplicate_decision_delivers_twice_for_plain_sends(self, kernel):
        # Fire-and-forget sends have no seq, so an injected duplicate
        # really reaches the handler twice -- that is the failure mode
        # send_reliable exists to fix.
        faults = ScriptedFaults({0: FaultDecision(duplicates=1)})
        transport, received = _rig(kernel, faults)
        transport.send("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == ["delta", "delta"]


class TestReliableDelivery:
    def test_ack_cancels_the_retry(self, kernel):
        transport, received = _rig(kernel)
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == ["delta"]
        assert transport.stats.retries == 0
        assert transport.stats.acks_sent == 1
        assert transport.pending_reliable == 0

    def test_lost_message_is_retransmitted(self, kernel):
        faults = ScriptedFaults({0: FaultDecision(drop=True)})
        transport, received = _rig(kernel, faults)
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == ["delta"]
        assert transport.stats.retries == 1
        assert transport.pending_reliable == 0

    def test_injected_duplicate_is_suppressed(self, kernel):
        # Satellite regression: a delta observed twice increments
        # lan.duplicates_dropped and reaches the handler exactly once.
        faults = ScriptedFaults({0: FaultDecision(duplicates=1)})
        transport, received = _rig(kernel, faults)
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == ["delta"]
        assert transport.stats.duplicates_dropped == 1

    def test_lost_ack_causes_retry_then_dedup(self, kernel):
        # Data arrives, the ack is dropped: the sender retransmits, the
        # receiver sees a duplicate, suppresses it, and re-acks.
        faults = ScriptedFaults({1: FaultDecision(drop=True)})  # call 1 = the ack
        transport, received = _rig(kernel, faults)
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == ["delta"]  # applied once despite two deliveries
        assert transport.stats.duplicates_dropped == 1
        assert transport.stats.retries == 1
        assert transport.pending_reliable == 0
        # The dropped frame really was the ack.
        assert isinstance(faults.calls[1][3], DeliveryAck)

    def test_retries_exhaust_after_the_attempt_budget(self, kernel):
        faults = ScriptedFaults(
            {index: FaultDecision(drop=True) for index in range(RETRY_MAX_ATTEMPTS)}
        )
        transport, received = _rig(kernel, faults)
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        assert received == []
        assert transport.stats.retries == RETRY_MAX_ATTEMPTS - 1
        assert transport.stats.retries_exhausted == 1
        assert transport.pending_reliable == 0

    def test_acks_never_reach_handlers(self, kernel):
        transport, received = _rig(kernel)
        for index in range(5):
            transport.send_reliable("ws:lab-1", "server", f"d{index}")
        kernel.run_until(LONG)
        assert received == [f"d{index}" for index in range(5)]
        assert transport.stats.acks_sent == 5

    def test_abort_pending_cancels_a_crashed_sources_queue(self, kernel):
        # Server down: the delta cannot be acked, so it sits pending.
        transport, received = _rig(kernel)
        transport.unregister("server")
        transport.send_reliable("ws:lab-1", "server", "delta")
        assert transport.pending_reliable == 1
        aborted = transport.abort_pending("ws:lab-1")
        assert aborted == 1
        assert transport.pending_reliable == 0
        kernel.run_until(LONG)
        assert received == []
        assert transport.stats.retries == 0  # timer was cancelled
        assert transport.stats.aborted == 1

    def test_sequence_numbers_are_per_direction(self, kernel):
        transport, received = _rig(kernel)
        transport.send_reliable("ws:lab-1", "server", "a")
        transport.send_reliable("server", "ws:lab-1", "b")
        kernel.run_until(LONG)
        # Both used seq 0 in their own (source, destination) space and
        # neither was mistaken for a duplicate of the other.
        assert received == ["a"]
        assert transport.stats.duplicates_dropped == 0
