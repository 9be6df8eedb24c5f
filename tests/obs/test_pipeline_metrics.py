"""Integration: a real simulation populates every metrics layer.

A small two-room deployment with one walking user must light up the
radio, LAN, and server instruments — and two identical seeded runs must
export byte-identical JSONL (the determinism contract of the metrics
plane).
"""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.obs.tracing import SpanTracer


def _run_small_sim(spans: SpanTracer | None = None) -> BIPSSimulation:
    sim = BIPSSimulation(
        plan=two_room_testbed(), config=BIPSConfig(seed=1234), spans=spans
    )
    sim.add_user("u-0", "Walker")
    sim.login("u-0")
    sim.walk("u-0", start_room="room-a", hops=2, start_at_seconds=5.0)
    sim.run(until_seconds=150.0)
    sim.server.locate("u-0", "Walker")
    return sim


@pytest.fixture(scope="module")
def sim() -> BIPSSimulation:
    return _run_small_sim()


@pytest.fixture(scope="module")
def by_name(sim) -> dict:
    sim.finalize_metrics()
    return {
        (record["name"], tuple(sorted(record["labels"].items()))): record
        for record in sim.metrics.snapshot()
    }


def _value(by_name, name, **labels):
    return by_name[(name, tuple(sorted(labels.items())))]["value"]


class TestPipelineMetrics:
    def test_sim_kernel_layer(self, by_name):
        assert _value(by_name, "sim.events_fired") > 0
        assert ("sim.queue_depth", ()) in by_name
        assert _value(by_name, "sim.simulated_seconds") == pytest.approx(150.0)

    def test_bluetooth_layer(self, by_name):
        assert _value(by_name, "bt.inquiry.responses_received") > 0
        assert _value(by_name, "bt.inquiry.devices_discovered") > 0
        assert _value(by_name, "bt.scan.responses_sent") > 0

    def test_lan_layer(self, by_name):
        assert _value(by_name, "lan.messages_sent") > 0
        assert _value(by_name, "lan.bytes_sent") > 0
        latency = by_name[("lan.delivery_latency_ticks", ())]
        assert latency["kind"] == "histogram"
        assert latency["count"] > 0

    def test_server_layer(self, by_name):
        assert _value(by_name, "core.presence_updates_received") > 0
        assert _value(by_name, "core.queries_served", kind="location") > 0
        assert _value(by_name, "db.known_devices") == 1

    def test_occupancy_gauges_exist_per_room(self, by_name):
        occupancy = {
            labels: record["value"]
            for (name, labels), record in by_name.items()
            if name == "core.piconet_occupancy"
        }
        assert set(occupancy) == {(("room", "room-a"),), (("room", "room-b"),)}
        # One logged-in device somewhere on the floor.
        assert sum(occupancy.values()) == 1

    def test_snapshot_has_all_three_kinds(self, by_name):
        kinds = {record["kind"] for record in by_name.values()}
        assert kinds == {"counter", "gauge", "histogram"}

    def test_events_flow_during_run(self):
        spans = SpanTracer(seed=1234)
        _run_small_sim(spans=spans)
        discoveries = [s for s in spans.spans if s.name == "bt.discovery"]
        deltas = [
            s
            for s in spans.spans
            if s.name == "bt.window" and s.attrs["presences"] + s.attrs["absences"]
        ]
        assert discoveries, "inquiry windows should discover the walker's device"
        assert deltas, "presence changes should be pushed to the server"


class TestDeterminism:
    def test_identical_seeds_identical_jsonl(self):
        first = _run_small_sim()
        second = _run_small_sim()
        first.finalize_metrics()
        second.finalize_metrics()
        assert first.metrics.to_jsonl() == second.metrics.to_jsonl()
