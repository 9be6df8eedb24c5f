"""Integration: spans thread causally through the whole simulation stack.

A traced run must light up all four layers (kernel / bluetooth / lan /
core) and the chains must reflect *causality*, not the call stack: a
database update parents to the LAN transit that carried the delta,
which parents to the inquiry window that produced it — and a
retransmitted message stays on the span of its original send even
though the retry fires from a timer.
"""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.faults.injector import NO_FAULT, FaultDecision
from repro.lan.transport import LANTransport
from repro.obs.tracing import SpanTracer
from repro.sim.kernel import Kernel

LONG = 100_000


def _traced_sim() -> SpanTracer:
    spans = SpanTracer(seed=1234, sample=1.0)
    sim = BIPSSimulation(
        plan=two_room_testbed(), config=BIPSConfig(seed=1234), spans=spans
    )
    sim.add_user("u-0", "Walker")
    sim.login("u-0")
    sim.walk("u-0", start_room="room-a", hops=2, start_at_seconds=5.0)
    sim.run(until_seconds=150.0)
    sim.server.locate("u-0", "Walker")
    return spans


@pytest.fixture(scope="module")
def spans() -> SpanTracer:
    return _traced_sim()


@pytest.fixture(scope="module")
def by_id(spans) -> dict:
    return {span.span_id: span for span in spans.spans}


class TestLayers:
    def test_all_four_layers_present(self, spans):
        assert {span.category for span in spans.spans} >= {
            "kernel",
            "bluetooth",
            "lan",
            "core",
        }

    def test_catalogued_names_only_outside_kernel(self, spans):
        catalogued = {
            "bt.window",
            "bt.response",
            "bt.discovery",
            "lan.transit",
            "core.db_apply",
            "core.query",
            "core.workstation_failed",
            "core.workstation_recovered",
            "core.server_brownout",
        }
        names = {
            span.name for span in spans.spans if span.category != "kernel"
        }
        assert names <= catalogued
        # The interesting ones actually occurred in a 150 s walk.
        assert {"bt.window", "bt.response", "lan.transit", "core.db_apply"} <= names

    def test_query_span_recorded(self, spans):
        assert any(span.category == "core" for span in spans.spans)
        queries = [span for span in spans.spans if span.name == "core.query"]
        assert queries and all("ok" in span.attrs for span in queries)


class TestCausalChains:
    def test_db_apply_chains_to_the_window_that_caused_it(self, spans, by_id):
        applies = [span for span in spans.spans if span.name == "core.db_apply"]
        assert applies
        for apply in applies:
            transit = by_id[apply.parent_id]
            assert transit.name == "lan.transit"
            window = by_id[transit.parent_id]
            assert window.name == "bt.window"
            assert window.parent_id == 0  # windows are trace roots
            assert apply.trace_id == transit.trace_id == window.trace_id

    def test_transit_outcomes_are_catalogued(self, spans):
        outcomes = {
            span.attrs["outcome"]
            for span in spans.spans
            if span.name == "lan.transit"
        }
        assert "delivered" in outcomes
        assert outcomes <= {"delivered", "dropped", "dedup"}

    def test_window_spans_cover_their_duty_cycle(self, spans):
        windows = [span for span in spans.spans if span.name == "bt.window"]
        assert windows
        for window in windows:
            assert window.end_tick is not None
            assert window.end_tick > window.start_tick
            assert {"ws", "room", "presences", "absences"} <= set(window.attrs)


class ScriptedFaults:
    """Drop/duplicate specific transmissions by decide-call index."""

    def __init__(self, script):
        self.script = dict(script)
        self.calls = 0

    def decide(self, now, source, destination, message):
        decision = self.script.get(self.calls, NO_FAULT)
        self.calls += 1
        return decision


class TestRetransmitContext:
    def _rig(self, script):
        spans = SpanTracer(seed=0, sample=1.0)
        kernel = Kernel(spans=spans)
        # No rng: latency and retry timeouts carry no jitter.
        transport = LANTransport(kernel, fault_injector=ScriptedFaults(script))
        transport.register("server", lambda src, msg: None)
        transport.register("ws:lab-1", lambda src, msg: None)
        return spans, kernel, transport

    def test_retransmit_parents_to_the_original_send(self):
        # Drop the first data copy; the retry fires from the ack-timeout
        # timer, where the ambient context is long gone.
        spans, kernel, transport = self._rig({0: FaultDecision(drop=True)})
        root = spans.begin("bt.window", "bluetooth", 0, parent=None)
        prev = spans.push(root)
        transport.send_reliable("ws:lab-1", "server", "delta")
        spans.pop(prev)
        kernel.run_until(LONG)
        spans.end(root, kernel.now)
        transits = [span for span in spans.spans if span.name == "lan.transit"]
        assert [span.attrs["outcome"] for span in transits] == [
            "dropped",
            "delivered",
        ]
        assert all(span.parent_id == root.span_id for span in transits)
        assert transport.stats.retries == 1

    def test_duplicate_copy_resolves_as_dedup_on_the_same_trace(self):
        spans, kernel, transport = self._rig({0: FaultDecision(duplicates=1)})
        root = spans.begin("bt.window", "bluetooth", 0, parent=None)
        prev = spans.push(root)
        transport.send_reliable("ws:lab-1", "server", "delta")
        spans.pop(prev)
        kernel.run_until(LONG)
        transits = [span for span in spans.spans if span.name == "lan.transit"]
        assert sorted(span.attrs["outcome"] for span in transits) == [
            "dedup",
            "delivered",
        ]
        assert {span.parent_id for span in transits} == {root.span_id}
        assert all(span.attrs["seq"] == 0 for span in transits)

    def test_send_to_downed_endpoint_is_a_dropped_instant(self):
        spans, kernel, transport = self._rig({})
        transport.unregister("server")
        transport.send("ws:lab-1", "server", "delta")
        kernel.run_until(LONG)
        (transit,) = [span for span in spans.spans if span.name == "lan.transit"]
        assert transit.attrs["outcome"] == "dropped"
        assert transit.end_tick == transit.start_tick
