"""``BIPSSimulation.finalize_metrics`` folds component state into counters.

The components count in plain attributes; ``finalize_metrics`` is the
one place that turns those counts into metric series.  These tests pin
that each folded series equals its source, that folding is idempotent,
that simulations sharing a registry add up, the crash/recovery
arithmetic of the workstation series, and the server's query, login
and stale-answer counts.
"""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core import BIPSConfig, BIPSSimulation, VisibilityPolicy
from repro.core.errors import AccessDeniedError
from repro.faults import FaultPlan
from repro.lan.messages import LocationResponse, LoginRequest, LoginResponse, PathResponse
from repro.obs.metrics import MetricsRegistry
from tests.core.test_temporal_queries import login_via_lan


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
        scanners = [
            scanner
            for userid in ("u-0", "u-1", "u-2", "u-3")
            for scanner in chaos_sim.user(userid).scanners
        ]
        swarms = {scanner.swarm for scanner in scanners}
        rows = [scanner.swarm.stats_of(scanner.row) for scanner in scanners]
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


def _counters(snapshot: list[dict]) -> dict[tuple, int]:
    return {
        (r["name"], *sorted(r["labels"].items())): r["value"]
        for r in snapshot
        if r["kind"] == "counter"
    }


def _query_sim(seed: int = 11, metrics: MetricsRegistry | None = None) -> BIPSSimulation:
    """Direct and LAN queries (some denied), LAN logins (one rejected),
    and a location answered stale after its workstation crashed."""
    sim = BIPSSimulation(
        config=BIPSConfig(
            seed=seed,
            dwell_low_seconds=500.0,
            dwell_high_seconds=600.0,
            refresh_interval_cycles=1,
            staleness_horizon_seconds=40.0,
        ),
        metrics=metrics,
    )
    sim.add_user("u-a", "A")
    sim.add_user("u-b", "B")
    sim.add_user("u-h", "H", policy=VisibilityPolicy.NOBODY)
    sim.add_user("u-c", "C")
    for userid in ("u-a", "u-b", "u-h"):
        sim.login(userid)
    sim.follow_route("u-a", ["lab-1"])
    sim.follow_route("u-b", ["lab-2"])
    login_via_lan(sim, "u-c")
    device = sim.user("u-c").device.address
    sim.lan.send(
        sim.user("u-c").endpoint, sim.server.endpoint,
        LoginRequest(sent_tick=0, userid="u-c", password="wrong", device=device),
    )
    sim.run(until_seconds=60.0)
    server = sim.server
    server.locate("u-b", "A")
    server.navigate("u-b", "A")
    server.locate_at_seconds("u-b", "A", 30.0)
    for direct in (server.locate, server.navigate):
        with pytest.raises(AccessDeniedError):
            direct("u-b", "H")
    for target in ("A", "H", "Ghost"):
        sim.query_location_via_lan("u-b", target)
        sim.query_path_via_lan("u-b", target)
    sim.query_path_via_lan("u-c", "A")  # the querier is untracked
    sim.fail_workstation("lab-1")
    sim.run(until_seconds=170.0)
    sim.query_location_via_lan("u-b", "A")
    sim.run(until_seconds=171.0)
    return sim


@pytest.fixture(scope="module")
def query_sim() -> BIPSSimulation:
    sim = _query_sim()
    sim.finalize_metrics()
    return sim


class TestQuerySeries:
    def _inbox(self, sim, kind):
        return [m for u in ("u-b", "u-c") for m in sim.user(u).inbox if isinstance(m, kind)]

    def test_served_counts_direct_calls_before_they_run_and_lan_answers(self, query_sim):
        values = _values(query_sim.metrics)
        locations = self._inbox(query_sim, LocationResponse)
        paths = self._inbox(query_sim, PathResponse)
        assert (len(locations), len(paths)) == (4, 4)
        # Two direct calls of each kind (one denied), no locate_at.
        assert values[("core.queries_served", ("kind", "location"))] == 2 + len(locations)
        assert values[("core.queries_served", ("kind", "path"))] == 2 + len(paths)

    def test_failed_counts_only_negative_lan_answers(self, query_sim):
        values = _values(query_sim.metrics)
        locations = self._inbox(query_sim, LocationResponse)
        paths = self._inbox(query_sim, PathResponse)
        failed_locations = sum(not m.ok for m in locations)
        failed_paths = sum(not m.ok for m in paths)
        assert (failed_locations, failed_paths) == (2, 3)
        assert values[("core.queries_failed", ("kind", "location"))] == failed_locations
        assert values[("core.queries_failed", ("kind", "path"))] == failed_paths
        latency = next(
            r for r in query_sim.metrics.snapshot() if r["name"] == "core.query_latency_ticks"
        )
        assert latency["count"] == len(locations) + len(paths)

    def test_logins_by_outcome(self, query_sim):
        values = _values(query_sim.metrics)
        outcomes = [m.ok for m in query_sim.user("u-c").inbox if isinstance(m, LoginResponse)]
        assert sorted(outcomes) == [False, True]
        assert values[("core.logins", ("outcome", "ok"))] == 1
        assert values[("core.logins", ("outcome", "rejected"))] == 1

    def test_stale_answers(self, query_sim):
        stale = [m for m in self._inbox(query_sim, LocationResponse) if m.stale]
        assert len(stale) == 1 and stale[0].room_id == "lab-1"
        assert _values(query_sim.metrics)[("core.stale_answers",)] == 1

    def test_a_run_without_queries_emits_no_query_series(self, chaos_sim):
        names = {record["name"] for record in chaos_sim.metrics.snapshot()}
        assert not names & {
            "core.queries_served",
            "core.queries_failed",
            "core.query_latency_ticks",
            "core.logins",
            "core.stale_answers",
        }

    def test_finalize_twice_gives_the_same_snapshot(self, query_sim):
        first = query_sim.metrics.snapshot()
        query_sim.finalize_metrics()
        assert query_sim.metrics.snapshot() == first

    def test_simulations_sharing_a_registry_add_up(self):
        alone = []
        for seed in (11, 12):
            sim = _query_sim(seed=seed)
            sim.finalize_metrics()
            alone.append(_counters(sim.metrics.snapshot()))
        shared = MetricsRegistry()
        first = _query_sim(seed=11, metrics=shared)
        first.finalize_metrics()
        second = _query_sim(seed=12, metrics=shared)
        second.finalize_metrics()
        first.finalize_metrics()  # a repeated fold adds nothing
        a, b = alone
        totals = {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}
        assert _counters(shared.snapshot()) == totals
        assert totals[("core.queries_served", ("kind", "location"))] == 12
        assert totals[("core.logins", ("outcome", "rejected"))] == 2
