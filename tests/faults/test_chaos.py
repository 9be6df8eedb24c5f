"""Chaos suite: system invariants under every registered fault profile.

Each profile drives a full BIPS deployment with stationary users; the
assertions are invariants, not statistics — whatever the plan broke,
the pipeline must keep every user attributed to at most one piconet,
re-converge within a bounded number of inquiry cycles once the fault
window closes, and stay byte-reproducible from ``(seed, fault seed)``.
"""

from __future__ import annotations

import pytest

from repro.core import BIPSConfig, BIPSSimulation
from repro.faults import FaultPlan, profile_names

#: Every fault plan stops injecting at 300 s (``DEFAULT_ACTIVE_SECONDS``); a
#: 400 s run leaves ~6 §5 inquiry cycles (15.4 s each) of healthy tail,
#: comfortably above the convergence bound below.
FAULTS_END_SECONDS = 300.0
RUN_SECONDS = 400.0

#: Convergence bound: miss_threshold (2) cycles to flush a false
#: absence plus one cycle to re-discover and one for LAN/refresh slack.
CONVERGENCE_CYCLES = 4

ROUTES = {"u-a": ("A", "lab-1"), "u-b": ("B", "lab-2")}


def _chaos_sim(profile: str, fault_seed: int = 5, seed: int = 13) -> BIPSSimulation:
    config = BIPSConfig(
        seed=seed,
        dwell_low_seconds=500.0,
        dwell_high_seconds=600.0,
        refresh_interval_cycles=1,
        staleness_horizon_seconds=60.0,
    )
    sim = BIPSSimulation(config=config, faults=FaultPlan.named(profile, seed=fault_seed))
    for userid, (username, room) in ROUTES.items():
        sim.add_user(userid, username)
        sim.login(userid)
        sim.follow_route(userid, [room])
    return sim


def _location_trace(sim: BIPSSimulation) -> list[tuple[str, int, object]]:
    """The byte-comparable outcome of a run: every DB transition."""
    trace = []
    for userid in sorted(ROUTES):
        device = sim.user(userid).device.address
        for event in sim.server.location_db.history_of(device):
            trace.append((userid, event.tick, event.room_id))
    return trace


@pytest.mark.parametrize("profile", profile_names())
class TestEveryProfile:
    def test_invariants_hold_and_tracking_converges(self, profile):
        sim = _chaos_sim(profile)
        sim.run(until_seconds=RUN_SECONDS)

        # 1. No user is in two piconets: tracker presence sets are
        #    disjoint and the database attributes each device one room.
        seen = set()
        for room_id in sorted(sim.workstations):
            present = sim.workstations[room_id].tracker.present_devices
            assert not (present & seen), f"{profile}: device in two piconets"
            seen |= present
        occupants = [
            device
            for room in sorted(sim.plan.rooms)
            for device in sim.server.location_db.occupants_of(room)
        ]
        assert len(occupants) == len(set(occupants))

        # 2. Convergence: the fault window closed >6 cycles ago, so
        #    every stationary user is attributed to their real room and
        #    the attribution is fresh again (no lingering staleness).
        for userid, (username, room) in ROUTES.items():
            querier = next(u for u in ROUTES if u != userid)
            answer = sim.server.locate(querier, username)
            device = sim.user(userid).device.address
            stale = sim.server.location_db.is_stale(device, sim.kernel.now)
            assert answer == room, f"{profile}: {username} misplaced after recovery"
            assert not stale, f"{profile}: answer still stale after recovery"

        # 3. Whatever was injected, nothing leaked past the window: all
        #    workstations are up and no reliable send is stuck.
        for workstation in sim.workstations.values():
            assert not workstation.failed
        assert not sim.server.browned_out
        assert sim.lan.pending_reliable == 0

    def test_runs_are_byte_reproducible(self, profile):
        first = _chaos_sim(profile)
        first.run(until_seconds=RUN_SECONDS)
        second = _chaos_sim(profile)
        second.run(until_seconds=RUN_SECONDS)
        assert _location_trace(first) == _location_trace(second)
        assert first.lan.stats == second.lan.stats


class TestFaultSeedIsolation:
    def test_fault_seed_changes_faults_not_the_walk(self):
        # Fault plans draw from their own streams: changing the fault
        # seed must not perturb the simulation's ground truth.
        sims = [_chaos_sim("chaos", fault_seed=s) for s in (1, 2)]
        for sim in sims:
            sim.run(until_seconds=RUN_SECONDS)
        ground_truths = [
            [
                (visit.enter_tick, visit.leave_tick, visit.room_id)
                for userid in sorted(ROUTES)
                for visit in sim.user(userid).timeline.visits
            ]
            for sim in sims
        ]
        assert ground_truths[0] == ground_truths[1]
        # ...while the faults themselves did change.
        assert _location_trace(sims[0]) != _location_trace(sims[1]) or (
            sims[0].lan.stats != sims[1].lan.stats
        )

    def test_faults_gauge_is_set(self):
        sim = _chaos_sim("chaos")
        sim.run(until_seconds=50.0)
        assert sim.metrics.gauge("faults.active").value == 1

    def test_none_profile_matches_a_fault_free_run(self):
        # faults="none" is the identity: same bytes as no plan at all.
        plain = BIPSSimulation(config=BIPSConfig(seed=13))
        plain.add_user("u-a", "A")
        plain.login("u-a")
        plain.follow_route("u-a", ["lab-1"])
        plain.run(until_seconds=200.0)

        nulled = BIPSSimulation(
            config=BIPSConfig(seed=13), faults=FaultPlan.named("none", seed=99)
        )
        nulled.add_user("u-a", "A")
        nulled.login("u-a")
        nulled.follow_route("u-a", ["lab-1"])
        nulled.run(until_seconds=200.0)

        device = plain.user("u-a").device.address
        assert [
            (e.tick, e.room_id) for e in plain.server.location_db.history_of(device)
        ] == [
            (e.tick, e.room_id) for e in nulled.server.location_db.history_of(device)
        ]
        assert plain.lan.stats == nulled.lan.stats
