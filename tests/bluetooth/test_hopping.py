"""Tests for the inquiry hopping structure and transmit-schedule arithmetic.

The inverse lookup ``next_tx_of_position`` is the load-bearing primitive
of the whole event-driven baseband, so it is cross-checked against a
brute-force forward enumeration of everything the master transmits.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.constants import (
    NUM_INQUIRY_FREQUENCIES,
    NUM_RF_CHANNELS,
    TICKS_PER_TRAIN_DWELL,
    TICKS_PER_TRAIN_PASS,
)
from repro.bluetooth.hopping import (
    InquiryTransmitSchedule,
    PeriodicWindows,
    Train,
    TrainStrategy,
    continuous_inquiry,
    inquiry_sequence,
    periodic_inquiry,
    train_of_position,
    tx_offset_of_position,
)


def enumerate_transmissions(schedule: InquiryTransmitSchedule, until: int):
    """Reference model: every (tick, position) the master transmits."""
    for window in schedule.windows.iter_windows(0, until):
        pass_index = 0
        while True:
            base = window.start + pass_index * TICKS_PER_TRAIN_PASS
            if base >= window.end or base >= until:
                break
            train = schedule.train_of_pass(pass_index)
            for position in range(NUM_INQUIRY_FREQUENCIES):
                if train_of_position(position) is train:
                    tick = base + tx_offset_of_position(position)
                    if tick < window.end and tick < until:
                        yield tick, position
            pass_index += 1


class TestSequence:
    def test_length_and_uniqueness(self):
        seq = inquiry_sequence()
        assert len(seq) == 32
        assert len(set(seq)) == 32

    def test_channels_in_band(self):
        assert all(0 <= c < NUM_RF_CHANNELS for c in inquiry_sequence())

    def test_deterministic(self):
        assert inquiry_sequence() == inquiry_sequence()

    def test_different_lap_different_sequence(self):
        assert inquiry_sequence(0x9E8B33) != inquiry_sequence(0x123456)

    def test_invalid_lap_rejected(self):
        with pytest.raises(ValueError):
            inquiry_sequence(1 << 24)


class TestTrains:
    def test_partition(self):
        a_positions = [p for p in range(32) if train_of_position(p) is Train.A]
        b_positions = [p for p in range(32) if train_of_position(p) is Train.B]
        assert a_positions == list(range(16))
        assert b_positions == list(range(16, 32))

    def test_other(self):
        assert Train.A.other is Train.B
        assert Train.B.other is Train.A

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            train_of_position(32)

    def test_tx_offsets_are_distinct_within_a_pass(self):
        offsets = [tx_offset_of_position(p) for p in range(16)]
        assert len(set(offsets)) == 16

    def test_tx_offsets_land_in_even_slots(self):
        # Transmissions happen in even slots (offsets 0,1 then 4,5 ...).
        for position in range(16):
            offset = tx_offset_of_position(position)
            assert (offset // 2) % 2 == 0

    def test_two_frequencies_per_even_slot(self):
        # Positions 2k and 2k+1 occupy the two halves of the same slot.
        for k in range(8):
            assert tx_offset_of_position(2 * k) + 1 == tx_offset_of_position(2 * k + 1)


class TestPeriodicWindows:
    def test_single_continuous_window(self):
        windows = PeriodicWindows.continuous()
        assert windows.is_active(0)
        assert windows.is_active(10**9)
        assert len(list(windows.iter_windows(0, 10**6))) == 1

    def test_periodic_activity(self):
        windows = PeriodicWindows(start=0, window_ticks=100, period_ticks=500)
        assert windows.is_active(0)
        assert windows.is_active(99)
        assert not windows.is_active(100)
        assert not windows.is_active(499)
        assert windows.is_active(500)

    def test_iter_windows_overlap_semantics(self):
        windows = PeriodicWindows(start=0, window_ticks=100, period_ticks=500)
        spans = [(w.start, w.end) for w in windows.iter_windows(50, 1100)]
        assert spans == [(0, 100), (500, 600), (1000, 1100)]

    def test_count_limits_windows(self):
        windows = PeriodicWindows(start=0, window_ticks=100, period_ticks=500, count=2)
        assert not windows.is_active(1000)
        assert len(list(windows.iter_windows(0, 10**6))) == 2

    def test_start_offset(self):
        windows = PeriodicWindows(start=300, window_ticks=100, period_ticks=500)
        assert not windows.is_active(0)
        assert windows.is_active(300)

    def test_containing(self):
        windows = PeriodicWindows(start=0, window_ticks=100, period_ticks=500)
        window = windows.containing(550)
        assert window is not None and (window.start, window.end) == (500, 600)
        assert windows.containing(200) is None

    def test_next_active_jumps_idle_gaps(self):
        windows = PeriodicWindows(start=300, window_ticks=100, period_ticks=500)
        assert windows.next_active(0) == 300
        assert windows.next_active(300) == 300
        assert windows.next_active(350) == 350  # inside a window: no jump
        assert windows.next_active(400) == 800  # first tick past the window
        assert windows.next_active(799) == 800

    def test_next_active_exhausted_count(self):
        windows = PeriodicWindows(start=0, window_ticks=100, period_ticks=500, count=2)
        assert windows.next_active(550) == 550
        assert windows.next_active(600) is None
        assert windows.next_active(10**9) is None

    def test_next_active_matches_is_active_scan(self):
        windows = PeriodicWindows(start=7, window_ticks=13, period_ticks=40, count=5)
        horizon = windows.start + 6 * windows.period_ticks
        for tick in range(horizon):
            expected = next(
                (t for t in range(tick, horizon) if windows.is_active(t)), None
            )
            assert windows.next_active(tick) == expected, tick

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicWindows(start=0, window_ticks=0, period_ticks=10)
        with pytest.raises(ValueError):
            PeriodicWindows(start=0, window_ticks=20, period_ticks=10)
        with pytest.raises(ValueError):
            PeriodicWindows(start=0, window_ticks=10, period_ticks=10, count=0)


class TestTrainPlan:
    def test_alternate_switches_every_dwell(self):
        schedule = continuous_inquiry(start_train=Train.A)
        assert schedule.train_of_pass(0) is Train.A
        assert schedule.train_of_pass(255) is Train.A
        assert schedule.train_of_pass(256) is Train.B
        assert schedule.train_of_pass(512) is Train.A

    def test_alternate_starting_on_b(self):
        schedule = continuous_inquiry(start_train=Train.B)
        assert schedule.train_of_pass(0) is Train.B
        assert schedule.train_of_pass(256) is Train.A

    def test_single_train_strategies(self):
        a_only = continuous_inquiry(strategy=TrainStrategy.A_ONLY)
        b_only = continuous_inquiry(strategy=TrainStrategy.B_ONLY)
        for pass_index in (0, 100, 1000):
            assert a_only.train_of_pass(pass_index) is Train.A
            assert b_only.train_of_pass(pass_index) is Train.B

    def test_train_at(self):
        schedule = continuous_inquiry(start_train=Train.A)
        assert schedule.train_at(0) is Train.A
        assert schedule.train_at(TICKS_PER_TRAIN_DWELL) is Train.B

    def test_train_at_idle_master(self):
        schedule = periodic_inquiry(window_ticks=100, period_ticks=1000)
        assert schedule.train_at(500) is None

    def test_dwell_duration_constant(self):
        # N_inquiry = 256 passes of 10 ms = 2.56 s.
        assert TICKS_PER_TRAIN_DWELL == 256 * TICKS_PER_TRAIN_PASS == 8192


class TestNextTxAgainstBruteForce:
    """Cross-check the O(1) inverse lookup against forward enumeration."""

    def check(self, schedule: InquiryTransmitSchedule, horizon: int, step: int = 997):
        transmissions: dict[int, list[int]] = {}
        for tick, position in enumerate_transmissions(schedule, horizon):
            transmissions.setdefault(position, []).append(tick)
        for position in range(NUM_INQUIRY_FREQUENCIES):
            ticks = transmissions.get(position, [])
            for from_tick in range(0, horizon, step):
                expected = next((t for t in ticks if t >= from_tick), None)
                actual = schedule.next_tx_of_position(position, from_tick, horizon)
                assert actual == expected, (
                    f"position={position} from={from_tick}: "
                    f"got {actual}, want {expected}"
                )

    def test_continuous_alternating(self):
        # Horizon covers one full A dwell plus part of the B dwell.
        self.check(continuous_inquiry(start_train=Train.A), horizon=12000)

    def test_continuous_starting_b(self):
        self.check(continuous_inquiry(start_train=Train.B), horizon=9000)

    def test_a_only_periodic_windows(self):
        schedule = periodic_inquiry(
            window_ticks=3200, period_ticks=16000, strategy=TrainStrategy.A_ONLY
        )
        self.check(schedule, horizon=36000, step=1733)

    def test_alternating_periodic_windows(self):
        schedule = periodic_inquiry(
            window_ticks=12288, period_ticks=49280, strategy=TrainStrategy.ALTERNATE
        )
        self.check(schedule, horizon=60000, step=2111)

    def test_window_not_multiple_of_pass(self):
        schedule = periodic_inquiry(
            window_ticks=333, period_ticks=1000, strategy=TrainStrategy.A_ONLY
        )
        self.check(schedule, horizon=5000, step=97)

    def test_limited_window_count(self):
        schedule = periodic_inquiry(
            window_ticks=3200,
            period_ticks=16000,
            strategy=TrainStrategy.ALTERNATE,
            count=2,
        )
        self.check(schedule, horizon=40000, step=1999)


class TestNextTxEdgeCases:
    def test_b_position_never_sent_by_a_only_master(self):
        schedule = continuous_inquiry(strategy=TrainStrategy.A_ONLY)
        assert schedule.next_tx_of_position(20, 0, 10**6) is None

    def test_before_bound_respected(self):
        schedule = continuous_inquiry(start_train=Train.A)
        first = schedule.next_tx_of_position(0, 0, 10**6)
        assert first is not None
        assert schedule.next_tx_of_position(0, 0, first) is None

    def test_result_at_or_after_from(self):
        schedule = continuous_inquiry(start_train=Train.A)
        for from_tick in (0, 1, 31, 32, 100, 8191, 8192):
            result = schedule.next_tx_of_position(5, from_tick, 10**6)
            assert result is not None and result >= from_tick

    def test_out_of_range_position_rejected(self):
        schedule = continuous_inquiry()
        with pytest.raises(ValueError):
            schedule.next_tx_of_position(NUM_INQUIRY_FREQUENCIES, 0, 100)

    def test_is_listening_matches_windows(self):
        schedule = periodic_inquiry(window_ticks=100, period_ticks=500)
        assert schedule.is_listening(50)
        assert not schedule.is_listening(200)

    def test_invalid_passes_per_dwell(self):
        with pytest.raises(ValueError):
            InquiryTransmitSchedule(
                windows=PeriodicWindows.continuous(), passes_per_dwell=0
            )


def _is_transmission(schedule: InquiryTransmitSchedule, position: int, tick: int) -> bool:
    """Brute-force oracle: the master sends ``position`` at ``tick``."""
    window = schedule.windows.containing(tick)
    return (
        window is not None
        and (tick - window.start) % TICKS_PER_TRAIN_PASS == tx_offset_of_position(position)
        and schedule.train_at(tick) is train_of_position(position)
    )


class TestFirstTxRun:
    """first_tx_run against an independent tick-by-tick scan.

    The swarm answers every rendezvous with it and continues a
    responder along the run, so both the first tick and the run stop
    must hold on every schedule shape.
    """

    SCHEDULES = [
        pytest.param(lambda: continuous_inquiry(), id="continuous-alternate"),
        pytest.param(lambda: continuous_inquiry(start_train=Train.B), id="continuous-train-b"),
        pytest.param(
            lambda: continuous_inquiry(strategy=TrainStrategy.A_ONLY), id="continuous-a-only"
        ),
        pytest.param(
            lambda: continuous_inquiry(strategy=TrainStrategy.B_ONLY), id="continuous-b-only"
        ),
        pytest.param(
            lambda: periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY, start=777),
            id="periodic-a-only",
        ),
        pytest.param(lambda: periodic_inquiry(3200, 16000, start=777), id="periodic-alternate"),
        pytest.param(
            lambda: periodic_inquiry(1280, 4096, strategy=TrainStrategy.B_ONLY, start=5),
            id="periodic-b-only",
        ),
        pytest.param(lambda: periodic_inquiry(12288, 49280, start=123), id="periodic-long-dwell"),
        pytest.param(
            lambda: periodic_inquiry(3200, 16000, start=0, count=3), id="periodic-finite"
        ),
    ]

    @pytest.mark.parametrize("schedule_factory", SCHEDULES)
    def test_matches_tick_scan(self, schedule_factory):
        import random

        schedule = schedule_factory()
        rnd = random.Random(20260808)
        found = 0
        for _ in range(40):
            position = rnd.randrange(32)
            start = rnd.randrange(0, 200_000)
            stop = start + rnd.randrange(0, 20_000)
            expected = next(
                (t for t in range(start, stop) if _is_transmission(schedule, position, t)),
                None,
            )
            run = schedule.first_tx_run(position, start, stop)
            if expected is None:
                assert run is None, (position, start, stop, run)
                continue
            found += 1
            tx, run_stop = run
            assert tx == expected, (position, start, stop, run)
            assert run_stop > tx
            # Every pass of the run transmits the position (capped: a
            # continuous single-train run never ends).
            for tick in range(tx, min(run_stop, tx + 20_000), TICKS_PER_TRAIN_PASS):
                assert _is_transmission(schedule, position, tick), (position, tick, run)
        assert found

    def test_run_stops_at_dwell_block_end(self):
        schedule = continuous_inquiry()
        # Position 0 (train A) is sent in the first dwell block only.
        assert schedule.first_tx_run(0, 100, 9_000) == (128, TICKS_PER_TRAIN_DWELL)
        # Past that block it jumps a block, to train A's next one.
        tx, run_stop = schedule.first_tx_run(0, TICKS_PER_TRAIN_DWELL, 10**6)
        assert tx == 2 * TICKS_PER_TRAIN_DWELL
        assert run_stop == 3 * TICKS_PER_TRAIN_DWELL

    def test_run_stops_at_window_end(self):
        schedule = periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY, start=777)
        tx, run_stop = schedule.first_tx_run(3, 1000, 10**6)
        assert run_stop == 777 + 3200
        # Past the window end: the next window's first pass.
        tx, run_stop = schedule.first_tx_run(3, 777 + 3200, 10**6)
        assert tx == 777 + 16000 + tx_offset_of_position(3)
        assert run_stop == 777 + 16000 + 3200

    def test_first_tick_is_next_tx(self):
        schedule = continuous_inquiry()
        for position in (0, 7, 16, 31):
            tx, _ = schedule.first_tx_run(position, 100, 9_000_000)
            assert tx == schedule.next_tx_of_position(position, 100, 9_000_000)

    def test_empty_span(self):
        schedule = periodic_inquiry(3200, 16000, start=0, count=1)
        assert schedule.first_tx_run(0, 20_000, 40_000) is None

    def test_train_never_sent_in_short_windows(self):
        # ALTERNATE windows shorter than a dwell block never reach the
        # second train: no window transmits it, however long the span.
        schedule = periodic_inquiry(3200, 16000)
        assert schedule.first_tx_run(16, 0, 1 << 62) is None
        assert schedule.first_tx_run(0, 0, 1 << 62) == (0, 3200)
