"""Recovery mechanics: crash/restart, brownouts, graceful degradation.

The other half of fault injection — what the pipeline does about it:
workstation restart re-registers and re-reports, reliable senders
bridge server brownouts, and the database marks (never invents)
answers it can no longer confirm.
"""

from __future__ import annotations

import pytest

from repro.core import BIPSConfig, BIPSSimulation
from repro.faults import FaultPlan
from repro.lan.messages import LocationResponse
from repro.lan.transport import LANTransport

#: Users stay put for the whole run: recovery tests need a stationary
#: ground truth, not a walk that happens to end mid-crash.
STAY = dict(dwell_low_seconds=500.0, dwell_high_seconds=600.0)


def _tracked_sim(seed=11, faults=None, **config_kwargs):
    sim = BIPSSimulation(
        config=BIPSConfig(seed=seed, **STAY, **config_kwargs), faults=faults
    )
    sim.add_user("u-a", "A")
    sim.add_user("u-b", "B")
    sim.login("u-a")
    sim.login("u-b")
    sim.follow_route("u-a", ["lab-1"])
    return sim


class TestWorkstationRestart:
    def test_crash_and_restart_reregisters_and_reannounces(self):
        sim = _tracked_sim()
        sim.run(until_seconds=60.0)
        assert sim.server.locate("u-b", "A") == "lab-1"
        workstation = sim.workstations["lab-1"]
        sim.fail_workstation("lab-1")
        assert workstation.workstation_id not in sim.lan.endpoint_names
        sim.recover_workstation("lab-1")
        assert workstation.workstation_id in sim.lan.endpoint_names
        assert workstation.reregistrations == 1
        sim.finalize_metrics()
        assert sim.metrics.counter("core.workstation_reregistrations").value == 1
        # The re-hello re-announced the room mapping to the server.
        sim.run(until_seconds=61.0)
        assert sim.server.room_of_workstation(workstation.workstation_id) == "lab-1"

    def test_tracking_resumes_after_restart(self):
        sim = _tracked_sim()
        sim.run(until_seconds=60.0)
        sim.fail_workstation("lab-1")
        sim.run(until_seconds=120.0)
        sim.recover_workstation("lab-1")
        # The restarted tracker is empty; the next windows re-discover
        # and re-report the user still standing in the room.
        sim.run(until_seconds=240.0)
        assert sim.server.locate("u-b", "A") == "lab-1"
        device = sim.user("u-a").device.address
        record = sim.server.location_db.record_of(device)
        assert record is not None and record.last_confirmed_tick > 0

    def test_crash_keeps_last_position_as_degraded_answer(self):
        # refresh every cycle (~15.4 s) keeps a healthy record fresh
        # within the 40 s staleness horizon; a 100 s crash starves the
        # refreshes, so the answer survives but stops claiming freshness.
        sim = _tracked_sim(refresh_interval_cycles=1, staleness_horizon_seconds=40.0)
        sim.run(until_seconds=60.0)
        device = sim.user("u-a").device.address
        assert not sim.server.location_db.is_stale(device, sim.kernel.now)
        sim.fail_workstation("lab-1")
        sim.run(until_seconds=170.0)
        assert sim.server.locate("u-b", "A") == "lab-1"  # kept, not erased
        assert sim.server.location_db.is_stale(device, sim.kernel.now)
        assert device in sim.server.location_db.stale_devices(sim.kernel.now)
        # Recovery re-reports the user and the answer turns fresh again.
        sim.recover_workstation("lab-1")
        sim.run(until_seconds=280.0)
        assert sim.server.locate("u-b", "A") == "lab-1"
        assert not sim.server.location_db.is_stale(device, sim.kernel.now)

    def test_stale_flag_reaches_the_lan_response(self):
        sim = _tracked_sim(refresh_interval_cycles=1, staleness_horizon_seconds=40.0)
        sim.run(until_seconds=60.0)
        sim.fail_workstation("lab-1")
        sim.run(until_seconds=170.0)
        sim.query_location_via_lan("u-b", "A")
        sim.run(until_seconds=171.0)
        response = next(
            m for m in sim.user("u-b").inbox if isinstance(m, LocationResponse)
        )
        assert response.room_id == "lab-1"
        assert response.stale
        sim.finalize_metrics()
        assert sim.metrics.counter("core.stale_answers").value >= 1


class TestServerBrownout:
    def test_brownout_drops_queries_silently(self):
        sim = _tracked_sim()
        sim.run(until_seconds=60.0)
        sim.server.set_brownout(True)
        assert sim.server.brownouts == 1
        sim.finalize_metrics()
        assert sim.metrics.counter("core.server_brownouts").value == 1
        sim.query_location_via_lan("u-b", "A")
        sim.run(until_seconds=90.0)
        assert not any(
            isinstance(m, LocationResponse) for m in sim.user("u-b").inbox
        )
        sim.server.set_brownout(False)
        sim.query_location_via_lan("u-b", "A")
        sim.run(until_seconds=120.0)
        assert any(isinstance(m, LocationResponse) for m in sim.user("u-b").inbox)

    def test_set_brownout_is_idempotent(self):
        sim = _tracked_sim()
        sim.server.set_brownout(True)
        sim.server.set_brownout(True)
        assert sim.server.brownouts == 1
        sim.server.set_brownout(False)
        sim.server.set_brownout(False)
        assert sim.server.brownouts == 1

    def test_reliable_sender_bridges_a_short_brownout(self, kernel):
        # The recovery story for brownouts: retransmission with backoff
        # outlives the outage, so the delta arrives — exactly once.
        transport = LANTransport(kernel)
        received = []
        transport.register("server", lambda src, msg: received.append(msg))
        transport.unregister("server")  # brownout starts
        transport.send_reliable("ws:lab-1", "server", "delta")
        kernel.run_until(kernel.now + 10)
        assert received == []
        transport.register("server", lambda src, msg: received.append(msg))
        kernel.run_until(kernel.now + 100_000)
        assert received == ["delta"]
        assert transport.stats.retries >= 1
        assert transport.pending_reliable == 0


class TestRetryPolicyWiring:
    def test_fault_plan_routes_deltas_reliably(self):
        sim = _tracked_sim(faults=FaultPlan.named("lossy-lan", seed=7))
        sim.run(until_seconds=60.0)
        assert sim.lan.stats.reliable_sent > 0
        assert sim.lan.stats.acks_sent > 0
        assert sim.server.locate("u-b", "A") == "lab-1"

    def test_restart_hello_routes_reliably(self):
        # The hello a restarted workstation sends is the message a
        # still-degraded network is most likely to lose, so under a fault
        # plan it must go out through send_reliable, never bare send.
        sim = _tracked_sim(faults=FaultPlan.named("lossy-lan", seed=7))
        sim.run(until_seconds=60.0)
        sim.fail_workstation("lab-1")
        stats = sim.lan.stats
        reliable = stats.reliable_sent
        hellos = stats.by_type.get("WorkstationHello", 0)
        sim.recover_workstation("lab-1")
        assert stats.by_type["WorkstationHello"] == hellos + 1
        assert stats.reliable_sent == reliable + 1

    def test_default_config_stays_fire_and_forget(self):
        sim = _tracked_sim()
        sim.run(until_seconds=60.0)
        assert sim.lan.stats.reliable_sent == 0
        assert sim.lan.stats.acks_sent == 0

    @pytest.mark.parametrize(
        "profile, reliable",
        [("none", False), ("lossy-lan", True), ("chaos", True)],
        ids=["none", "lossy-lan", "chaos"],
    )
    def test_every_push_takes_the_path_of_its_fault_plan(
        self, profile, reliable, monkeypatch
    ):
        # Pushes are reliable exactly when a fault plan injects: a
        # ``none`` run sends each one through bare send, a fault run
        # each one through send_reliable.
        sim = _tracked_sim(faults=FaultPlan.named(profile, seed=7))
        pushes = {"send": 0, "send_reliable": 0}

        def spy(method):
            original = getattr(sim.lan, method)

            def call(source, destination, message):
                if source.startswith("ws:"):
                    assert destination == "server"
                    pushes[method] += 1
                return original(source, destination, message)

            monkeypatch.setattr(sim.lan, method, call)

        spy("send")
        spy("send_reliable")
        sim.run(until_seconds=60.0)
        sim.fail_workstation("lab-1")
        sim.recover_workstation("lab-1")
        used, unused = (
            ("send_reliable", "send") if reliable else ("send", "send_reliable")
        )
        assert pushes[used] > 0
        assert pushes[unused] == 0
