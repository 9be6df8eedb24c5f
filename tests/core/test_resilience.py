"""Resilience features: soft-state refresh and workstation failure injection."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.device import BluetoothDevice
from repro.bluetooth.packets import FHSPacket
from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.scheduler import MasterSchedulingPolicy
from repro.core.simulation import BIPSSimulation
from repro.core.workstation import Workstation
from repro.lan.messages import PresenceUpdate
from repro.lan.transport import LANTransport
from repro.sim.clock import ticks_from_seconds
from tests.layouts import linear_wing

DEV = BDAddr(0x55)
CYCLE = ticks_from_seconds(15.4)


@pytest.fixture
def workstation_env(kernel):
    def build(**kwargs):
        lan = LANTransport(kernel)
        inbox = []
        lan.register("server", lambda src, msg: inbox.append(msg))
        workstation = Workstation(
            kernel=kernel,
            workstation_id="ws:lab",
            room_id="lab",
            device=BluetoothDevice(address=BDAddr(0xF0)),
            policy=MasterSchedulingPolicy(),
            lan=lan,
            miss_threshold=2,
            **kwargs,
        )
        return workstation, inbox

    return build


def see(workstation, tick):
    workstation.inquiry._on_fhs(
        FHSPacket(sender=DEV, clkn=0, channel=0, tx_tick=tick), tick
    )


class TestRefresh:
    def test_refresh_reasserts_present_devices(self, kernel, workstation_env):
        workstation, inbox = workstation_env(refresh_interval_cycles=2)
        workstation.start(horizon_tick=5 * CYCLE)
        for window_index in range(5):
            see(workstation, window_index * CYCLE + 50)
            kernel.run_until((window_index + 1) * CYCLE)
        updates = [m for m in inbox if isinstance(m, PresenceUpdate)]
        # One initial delta plus one refresh at every 2nd cycle
        # (cycle indices 1 and 3).
        assert [u.present for u in updates] == [True, True, True]
        assert workstation.refreshes_sent == 2

    def test_refresh_skips_devices_just_reported(self, kernel, workstation_env):
        workstation, inbox = workstation_env(refresh_interval_cycles=1)
        workstation.start(horizon_tick=2 * CYCLE)
        see(workstation, 50)
        kernel.run_until(CYCLE)
        updates = [m for m in inbox if isinstance(m, PresenceUpdate)]
        # The refresh in the same window as the fresh delta is elided.
        assert len(updates) == 1

    def test_no_refresh_by_default(self, kernel, workstation_env):
        workstation, inbox = workstation_env()
        workstation.start(horizon_tick=6 * CYCLE)
        for window_index in range(6):
            see(workstation, window_index * CYCLE + 50)
            kernel.run_until((window_index + 1) * CYCLE)
        updates = [m for m in inbox if isinstance(m, PresenceUpdate)]
        assert len(updates) == 1
        assert workstation.refreshes_sent == 0

    def test_negative_interval_rejected(self, kernel, workstation_env):
        with pytest.raises(ValueError):
            workstation_env(refresh_interval_cycles=-1)

    def test_refresh_heals_lost_delta_end_to_end(self):
        """With 40% LAN loss, refresh recovers stranded devices."""

        def run(seed, refresh):
            sim = BIPSSimulation(
                plan=two_room_testbed(),
                config=BIPSConfig(
                    seed=seed,
                    lan_loss_probability=0.4,
                    refresh_interval_cycles=refresh,
                ),
            )
            sim.add_user("u-a", "A")
            sim.login("u-a")
            sim.follow_route("u-a", ["room-a"])
            sim.run(until_seconds=400.0)
            return sim.server.location_db.current_room(
                sim.user("u-a").device.address
            )

        seeds = range(30, 40)
        stranded_without = sum(1 for s in seeds if run(s, refresh=0) is None)
        stranded_with = sum(1 for s in seeds if run(s, refresh=2) is None)
        # Pure delta reporting strands some runs (the one presence delta
        # was dropped); the 2-cycle refresh heals every one of them.
        assert stranded_without >= 1
        assert stranded_with == 0


class TestFailureInjection:
    def test_failed_workstation_reports_nothing(self, kernel, workstation_env):
        workstation, inbox = workstation_env()
        workstation.start(horizon_tick=3 * CYCLE)
        workstation.set_failed(True)
        see(workstation, 50)
        kernel.run_until(3 * CYCLE)
        assert [m for m in inbox if isinstance(m, PresenceUpdate)] == []
        assert workstation.windows_evaluated == 0

    def test_recovery_rereports_still_present_devices(self, kernel, workstation_env):
        workstation, inbox = workstation_env()
        workstation.start(horizon_tick=4 * CYCLE)
        see(workstation, 50)
        kernel.run_until(CYCLE)  # presence reported
        workstation.set_failed(True)
        kernel.run_until(2 * CYCLE)
        workstation.set_failed(False)
        # Device still in the room, responds in window 3.
        see(workstation, 2 * CYCLE + 50)
        kernel.run_until(3 * CYCLE)
        updates = [m for m in inbox if isinstance(m, PresenceUpdate)]
        # Initial presence + fresh presence after the restart (the
        # crashed process lost its tracker state).
        assert [u.present for u in updates] == [True, True]

    def test_set_failed_idempotent(self, kernel, workstation_env):
        workstation, _ = workstation_env()
        workstation.set_failed(True)
        workstation.set_failed(True)
        workstation.set_failed(False)
        workstation.set_failed(False)
        assert not workstation.failed

    def test_simulation_failure_window_loses_tracking(self):
        """A room whose workstation is down goes dark, then recovers."""
        sim = BIPSSimulation(plan=linear_wing(3), config=BIPSConfig(seed=8))
        sim.add_user("u-a", "A")
        sim.add_user("u-b", "B")
        sim.login("u-a")
        sim.login("u-b")
        sim.follow_route("u-a", ["wing-1"])
        sim.fail_workstation("wing-1")  # down from the start
        sim.run(until_seconds=120.0)
        assert sim.server.locate("u-b", "A") is None
        sim.recover_workstation("wing-1")
        sim.run(until_seconds=240.0)
        assert sim.server.locate("u-b", "A") == "wing-1"

    def test_scheduled_failure_and_recovery(self):
        sim = BIPSSimulation(plan=linear_wing(3), config=BIPSConfig(seed=8))
        sim.add_user("u-a", "A")
        sim.login("u-a")
        sim.follow_route("u-a", ["wing-1"])
        sim.fail_workstation("wing-1", at_seconds=300.0)
        sim.recover_workstation("wing-1", at_seconds=301.0)
        sim.run(until_seconds=400.0)  # fails and recovers mid-run
        device = sim.user("u-a").device.address
        assert sim.server.location_db.current_room(device) == "wing-1"
