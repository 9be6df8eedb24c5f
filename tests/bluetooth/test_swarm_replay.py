"""A pass replay changes nothing but the work done.

When the head of the swarm timeline starts a train pass of steady
CONTINUOUS responders, :meth:`InquiryScanSwarm._wake` advances the whole
responder set K passes at once (``_replay``).  Every case here runs each
seed twice, once as is and once with the replay made to decline, and
requires the same per-slave state and counters, channel and master
counts, ``last_seen``, batch counters, foreign markers' view of the run
and span stream.  Each case also checks that the replay fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.hopping import (
    InquiryTransmitSchedule,
    Train,
    TrainStrategy,
    continuous_inquiry,
    periodic_inquiry,
)
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import PhaseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.obs.tracing import SpanTracer
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed

#: Foreign markers fire every this many ticks (a prime, so they land at
#: every phase of a train pass).
MARKER_STEP = 1009

SEEDS = range(12)


@dataclass(frozen=True)
class Case:
    schedule: Callable[[], InquiryTransmitSchedule]
    scan: ScanConfig
    slaves: int
    horizon: int
    phases: tuple[int, int] = (0, 31)
    capture: bool = True
    enrol: bool = False


FIGURE2 = Case(
    lambda: periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY),
    ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED),
    slaves=10,
    horizon=48_000,
    phases=(0, 15),
    enrol=True,
)

CASES = {
    "figure2-enrolment": FIGURE2,
    # One 3.84 s window: a full dwell on the starting train, then 1.28 s
    # on the other, so cursor runs stop at the dwell switch.
    "section5-alternate": Case(
        lambda: periodic_inquiry(12_288, 12_288, start_train=Train.B, count=1),
        ScanConfig.continuous(phase_mode=PhaseMode.SEQUENCE),
        slaves=20,
        horizon=12_288,
    ),
    "single-train-crossing-8192": Case(
        lambda: continuous_inquiry(strategy=TrainStrategy.A_ONLY),
        ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED),
        slaves=3,
        horizon=4 * 8192,
        phases=(0, 15),
    ),
    "window-not-a-pass-multiple": Case(
        lambda: periodic_inquiry(1000, 4000, strategy=TrainStrategy.A_ONLY),
        ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED),
        slaves=6,
        horizon=16_000,
        phases=(0, 15),
    ),
    "no-receiver-capture": Case(
        FIGURE2.schedule, FIGURE2.scan, slaves=10, horizon=48_000, phases=(0, 15),
        capture=False,
    ),
    "fixed-phase": Case(
        continuous_inquiry,
        ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
        slaves=4,
        horizon=40_000,
    ),
}


def _run_through(kernel: Kernel, horizon: int) -> None:
    kernel.run_until(horizon)


def _small_steps(kernel: Kernel, horizon: int) -> None:
    for target in range(97, horizon, 97):
        kernel.run_until(target)
    kernel.run_until(horizon)


def _step_then_run(kernel: Kernel, horizon: int) -> None:
    # step() drains only the fired event's tick, so nothing replays
    # until run_until takes over.
    for _ in range(300):
        kernel.step()
    kernel.run_until(horizon)


def _simulate(case: Case, seed: int, drive: Callable[[Kernel, int], None]):
    """One traced piconet; returns everything the replay must keep."""
    spans = SpanTracer(seed=seed)
    kernel = Kernel(spans=spans)
    schedule = case.schedule()
    master = InquiryProcedure(
        kernel, schedule, name="master", receiver_capture=case.capture, spans=spans
    )
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=case.scan, name="r")
    root = RandomStream(seed, "replay")
    handles = {}
    for index in range(case.slaves):
        rng = root.child("slave", str(index))
        address = BDAddr(0x3000 + index)
        handles[address] = swarm.add_slave(
            address,
            seed=derive_seed(rng.seed, "draws"),
            clock=BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1)),
            base_phase=rng.randint(*case.phases),
            horizon_tick=case.horizon,
        )
    if case.enrol:
        # Figure 2's enrolment: a discovered slave leaves inquiry scan
        # when its window ends.
        def on_discovered(packet, tick):
            window = schedule.windows.containing(tick)
            stop_at = window.end if window is not None else tick
            kernel.schedule_at(
                max(stop_at, kernel.now), handles[packet.sender].stop, label="enroll"
            )

        master.on_discovered = on_discovered
    stats = master.channel.stats
    seen = []

    def marker():
        seen.append(
            (
                kernel.now,
                sum(handle.stats.responses for handle in handles.values()),
                master.responses_received,
                master.responses_blocked,
                master.discovered_count,
                stats.collision_events,
            )
        )

    for tick in range(0, case.horizon, MARKER_STEP):
        kernel.post_at(tick, marker)
    for handle in handles.values():
        handle.start()
    drive(kernel, case.horizon)
    master.on_discovered = None
    return (
        [(handle.state.value, handle.stats) for handle in handles.values()],
        (stats.transmissions, stats.delivered, stats.collided, stats.filtered),
        tuple((c.tick, c.rf_channel, c.senders) for c in stats.collisions),
        (master.responses_received, master.responses_missed, master.responses_blocked),
        tuple((str(r.address), r.clkn, r.discovered_tick) for r in master.results),
        sorted((str(address), tick) for address, tick in master.last_seen.items()),
        (swarm.advances, swarm.slave_steps),
        seen,
        spans.records(),
    )


def _declining(self, tick, limit):
    return 0


def _check_case(monkeypatch, case: Case, drive=_run_through):
    replays = []
    replay = InquiryScanSwarm._replay

    def counting(self, tick, limit):
        passes = replay(self, tick, limit)
        if passes:
            replays.append(passes)
        return passes

    for seed in SEEDS:
        with monkeypatch.context() as patch:
            patch.setattr(InquiryScanSwarm, "_replay", counting)
            replayed = _simulate(case, seed, drive)
        with monkeypatch.context() as patch:
            patch.setattr(InquiryScanSwarm, "_replay", _declining)
            stepped = _simulate(case, seed, drive)
        assert replayed == stepped, seed
    assert sum(replays) > len(replays) >= len(SEEDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_pass_by_pass(monkeypatch, name):
    _check_case(monkeypatch, CASES[name])


def test_run_until_in_small_steps(monkeypatch):
    _check_case(monkeypatch, FIGURE2, drive=_small_steps)


def test_step_then_run_until(monkeypatch):
    _check_case(monkeypatch, FIGURE2, drive=_step_then_run)


def test_replay_takes_most_figure2_buckets(monkeypatch):
    # Steady passes are most of a CONTINUOUS window's work.
    replayed = []
    replay = InquiryScanSwarm._replay

    def counting(self, tick, limit):
        before = self.advances
        passes = replay(self, tick, limit)
        replayed.append(self.advances - before)
        return passes

    monkeypatch.setattr(InquiryScanSwarm, "_replay", counting)
    advances = sum(_simulate(FIGURE2, seed, _run_through)[6][0] for seed in SEEDS)
    assert sum(replayed) > advances // 2


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(ScanConfig(), id="windowed-scan"),
    ],
)
def test_replay_needs_steady_continuous_responders(monkeypatch, config):
    # A windowed scan's cursors stop within its 36-tick window, too soon
    # for two passes.
    replays = []
    replay = InquiryScanSwarm._replay

    def counting(self, tick, limit):
        passes = replay(self, tick, limit)
        replays.append(passes)
        return passes

    monkeypatch.setattr(InquiryScanSwarm, "_replay", counting)
    kernel = Kernel()
    schedule = continuous_inquiry()
    master = InquiryProcedure(kernel, schedule)
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config)
    swarm.add_slave(BDAddr(0x5000), seed=derive_seed(1, "steady"), horizon_tick=60_000).start()
    kernel.run_until(60_000)
    assert master.responses_received > 0
    assert not any(replays)
