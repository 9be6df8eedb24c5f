"""``BIPSSimulation.finalize_metrics`` folds component state into counters.

The components count in plain attributes; ``finalize_metrics`` is the
one place that turns those counts into metric series.  These tests pin
that each folded series equals its source, that folding is idempotent,
that simulations sharing a registry add up, and the crash/recovery
arithmetic of the workstation series.
"""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core import BIPSConfig, BIPSSimulation
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry


def _walking_sim(
    seed: int = 21, faults: str = "none", metrics: MetricsRegistry | None = None
) -> BIPSSimulation:
    sim = BIPSSimulation(
        config=BIPSConfig(seed=seed),
        metrics=metrics,
        faults=FaultPlan.named(faults, seed=7),
    )
    rooms = sim.plan.room_ids()
    for index in range(4):
        userid = f"u-{index}"
        sim.add_user(userid, f"User{index}")
        sim.login(userid)
        sim.walk(userid, start_room=rooms[index * 3], hops=4, start_at_seconds=5.0 * index)
    sim.run(until_seconds=300.0)
    return sim


def _values(registry: MetricsRegistry) -> dict[tuple, object]:
    return {
        (record["name"], *sorted(record["labels"].items())): record.get("value")
        for record in registry.snapshot()
    }


@pytest.fixture(scope="module")
def chaos_sim() -> BIPSSimulation:
    sim = _walking_sim(faults="chaos")
    sim.finalize_metrics()
    return sim


class TestFoldedSeriesMatchTheirSources:
    def test_kernel_and_swarms(self, chaos_sim):
        values = _values(chaos_sim.metrics)
        kernel = chaos_sim.kernel
        assert values[("sim.events_fired",)] == kernel.events_fired > 0
        assert values[("sim.queue_depth",)] == kernel.pending_events
        swarms = {
            scanner.swarm
            for userid in ("u-0", "u-1", "u-2", "u-3")
            for scanner in chaos_sim.user(userid).scanners
        }
        rows = [swarm.stats_of(row) for swarm in swarms for row in range(swarm.slave_count)]
        assert values[("bt.scan.ids_heard",)] == sum(s.ids_heard for s in rows)
        assert values[("bt.scan.backoffs",)] == sum(s.backoffs for s in rows)
        assert values[("bt.scan.responses_sent",)] == sum(s.responses for s in rows) > 0
        assert values[("sim.batch.advances",)] == sum(s.advances for s in swarms)
        assert values[("sim.batch.slave_steps",)] == sum(s.slave_steps for s in swarms)

    def test_inquiry_and_workstations(self, chaos_sim):
        values = _values(chaos_sim.metrics)
        stations = list(chaos_sim.workstations.values())
        inquiries = [ws.inquiry for ws in stations]
        assert values[("bt.inquiry.responses_received",)] == sum(
            q.responses_received for q in inquiries
        )
        assert values[("bt.inquiry.responses_missed",)] == sum(
            q.responses_missed for q in inquiries
        )
        assert values[("bt.inquiry.responses_blocked",)] == sum(
            q.responses_blocked for q in inquiries
        )
        discovered = values[("bt.inquiry.devices_discovered",)]
        assert discovered == sum(q.discoveries for q in inquiries)
        # Forgets and restarts shrink the discovered sets, not the count.
        assert discovered > sum(q.discovered_count for q in inquiries)
        assert values[("core.inquiry_windows_evaluated",)] == sum(
            ws.windows_evaluated for ws in stations
        )
        sent = values[("core.presence_updates_sent", ("kind", "presence"))]
        sent += values[("core.presence_updates_sent", ("kind", "absence"))]
        assert sent == sum(ws.updates_sent for ws in stations)
        recoveries = sum(ws.reregistrations for ws in stations)
        assert recoveries > 0
        assert values[("core.workstation_recoveries",)] == recoveries
        assert values[("core.workstation_reregistrations",)] == recoveries
        assert values[("core.workstation_failures",)] == recoveries + sum(
            ws.failed for ws in stations
        )

    def test_server_lan_and_injector(self, chaos_sim):
        values = _values(chaos_sim.metrics)
        server = chaos_sim.server
        assert values[("core.presence_updates_received",)] == server.presence_updates_received
        assert values[("core.server_brownouts",)] == server.brownouts > 0
        stats = chaos_sim.lan.stats
        assert values[("lan.messages_sent",)] == stats.sent
        for type_name, count in stats.by_type.items():
            assert values[("lan.messages_sent_by_type", ("type", type_name))] == count
        assert values[("lan.messages_delivered",)] == stats.delivered
        assert values[("lan.messages_dropped",)] == stats.dropped
        assert values[("lan.reliable_messages",)] == stats.reliable_sent
        assert values[("lan.duplicates_dropped",)] == stats.duplicates_dropped
        assert values[("lan.retries",)] == stats.retries > 0
        assert values[("lan.retries_exhausted",)] == stats.retries_exhausted
        assert values[("lan.acks_sent",)] == stats.acks_sent
        injector = chaos_sim.lan.faults
        assert values[("faults.lan_dropped",)] == injector.dropped > 0
        assert values[("faults.lan_duplicated",)] == injector.duplicated
        assert values[("faults.lan_delayed",)] == injector.delayed
        assert values[("faults.lan_reordered",)] == injector.reordered


class TestFoldArithmetic:
    def test_finalize_twice_gives_the_same_snapshot(self):
        sim = _walking_sim(faults="chaos")
        sim.finalize_metrics()
        first = sim.metrics.snapshot()
        sim.finalize_metrics()
        assert sim.metrics.snapshot() == first

    def test_simulations_sharing_a_registry_add_up(self):
        alone = []
        for seed in (21, 22):
            sim = _walking_sim(seed=seed, faults="lossy-lan")
            sim.finalize_metrics()
            alone.append(sim.metrics.snapshot())
        shared = MetricsRegistry()
        first = _walking_sim(seed=21, faults="lossy-lan", metrics=shared)
        first.finalize_metrics()
        second = _walking_sim(seed=22, faults="lossy-lan", metrics=shared)
        second.finalize_metrics()
        first.finalize_metrics()  # a repeated fold adds nothing

        def counters(snapshot):
            return {
                (r["name"], *sorted(r["labels"].items())): r["value"]
                for r in snapshot
                if r["kind"] == "counter"
            }

        a, b = counters(alone[0]), counters(alone[1])
        totals = {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}
        assert counters(shared.snapshot()) == totals
        assert totals[("sim.events_fired",)] > a[("sim.events_fired",)] > 0

    def test_a_workstation_still_down_counts_one_more_failure(self):
        sim = BIPSSimulation(plan=two_room_testbed(), config=BIPSConfig(seed=15))
        sim.fail_workstation("room-a", at_seconds=20.0)
        sim.run(until_seconds=100.0)
        sim.finalize_metrics()
        values = _values(sim.metrics)
        assert values[("core.workstation_failures",)] == 0 + 1
        assert ("core.workstation_recoveries",) not in values
        assert ("core.workstation_reregistrations",) not in values

    def test_crashes_and_recoveries_alternate(self):
        sim = BIPSSimulation(plan=two_room_testbed(), config=BIPSConfig(seed=15))
        sim.fail_workstation("room-a", at_seconds=20.0)
        sim.recover_workstation("room-a", at_seconds=40.0)
        sim.fail_workstation("room-a", at_seconds=60.0)
        sim.run(until_seconds=100.0)
        sim.finalize_metrics()
        values = _values(sim.metrics)
        assert values[("core.workstation_recoveries",)] == 1
        assert values[("core.workstation_failures",)] == 1 + 1
