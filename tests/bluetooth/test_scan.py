"""Behaviour of one inquiry-scanning slave (a one-row swarm).

``next_hear`` is cross-checked against a per-tick reference model, and
the state machine is exercised through controlled scenarios on the
kernel.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import BluetoothClock
from repro.bluetooth.constants import BACKOFF_MAX_SLOTS, TICKS_PER_SLOT
from repro.bluetooth.hopping import (
    Train,
    TrainStrategy,
    continuous_inquiry,
    periodic_inquiry,
    train_of_position,
)
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import (
    BackoffReentry,
    PhaseMode,
    ResponseMode,
    ScanConfig,
    ScannerState,
)
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.sim.rng import derive_seed
from tests.bluetooth.test_hopping import enumerate_transmissions


#: The address ``make_scanner`` gives its slave.
SLAVE_ADDRESS = BDAddr(0xABCDEF)


def make_scanner(kernel, schedule, master, config=None, **overrides):
    """One slave, added through ``add_slave`` to its own swarm."""
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=config if config is not None else ScanConfig()
    )
    slave = dict(
        address=SLAVE_ADDRESS,
        seed=derive_seed(1, "scan-test"),
        clock=BluetoothClock(),
        base_phase=0,
        window_anchor=0,
        horizon_tick=200_000,
    )
    slave.update(overrides)
    return swarm.add_slave(**slave)


def next_hear(scanner, from_tick, ignore_windows=False):
    """The swarm's rendezvous search for ``scanner``'s row."""
    return scanner.swarm.next_hear(scanner.row, from_tick, ignore_windows)


def reference_next_hear(scanner, schedule, from_tick, before_tick, ignore_windows=False):
    """Per-tick reference: the first master tx the slave can hear."""
    tx_by_tick = {}
    for tick, position in enumerate_transmissions(schedule, before_tick):
        tx_by_tick.setdefault(tick, []).append(position)
    config = scanner.swarm.config
    anchor = scanner.swarm._anchor[scanner.row]
    for tick in range(from_tick, before_tick):
        if not (ignore_windows or config.is_continuous):
            offset = (tick - anchor) % config.interval_ticks
            if offset >= config.window_ticks:
                continue
        if scanner.listen_position(tick) in tx_by_tick.get(tick, ()):
            return tick
    return None


class TestListenPosition:
    def test_fixed_never_moves(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.FIXED), base_phase=7,
        )
        assert scanner.listen_position(0) == 7
        assert scanner.listen_position(10**6) == 7

    def test_sequence_steps_every_1280ms(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.SEQUENCE), base_phase=30,
        )
        assert scanner.listen_position(0) == 30
        assert scanner.listen_position(4096) == 31
        assert scanner.listen_position(8192) == 0  # wraps mod 32

    def test_train_locked_stays_in_train(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule)
        for base_phase, train in ((3, Train.A), (20, Train.B)):
            scanner = make_scanner(
                kernel, schedule, master,
                config=ScanConfig(phase_mode=PhaseMode.TRAIN_LOCKED),
                base_phase=base_phase,
            )
            for step in range(40):
                position = scanner.listen_position(step * 4096)
                assert train_of_position(position) is train

    def test_train_locked_walks_all_sixteen(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.TRAIN_LOCKED), base_phase=5,
        )
        positions = {scanner.listen_position(step * 4096) for step in range(16)}
        assert positions == set(range(16))

    def test_clock_offset_shifts_phase(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.SEQUENCE),
            clock=BluetoothClock(offset=4096), base_phase=0,
        )
        assert scanner.listen_position(0) == 1


class TestWindowGeometry:
    def test_continuous_config(self):
        assert ScanConfig.continuous().is_continuous
        assert not ScanConfig().is_continuous

    def test_interleaved_config_doubles_interval(self):
        config = ScanConfig.interleaved_with_page_scan()
        assert config.interval_ticks == 2 * 4096
        assert config.window_ticks == 36

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ScanConfig(window_ticks=0)
        with pytest.raises(ValueError):
            ScanConfig(window_ticks=100, interval_ticks=50)


class TestNextHearAgainstBruteForce:
    @pytest.mark.parametrize("base_phase", [0, 5, 15, 16, 25])
    @pytest.mark.parametrize("phase_mode", list(PhaseMode))
    def test_continuous_scan_continuous_master(self, kernel, base_phase, phase_mode):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=phase_mode),
            base_phase=base_phase,
            clock=BluetoothClock(offset=2000),
            horizon_tick=10_000,
        )
        for from_tick in (0, 1, 777, 4095, 4096, 9000):
            expected = reference_next_hear(scanner, schedule, from_tick, 10_000)
            assert next_hear(scanner, from_tick) == expected

    @pytest.mark.parametrize("anchor", [0, 50, 1000, 4000])
    def test_windowed_scan(self, kernel, anchor):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.SEQUENCE),
            base_phase=3,
            window_anchor=anchor,
            horizon_tick=12_000,
        )
        for from_tick in (0, 100, 4000, 8500):
            expected = reference_next_hear(scanner, schedule, from_tick, 12_000)
            assert next_hear(scanner, from_tick) == expected

    def test_windowed_scan_periodic_master(self, kernel):
        schedule = periodic_inquiry(
            window_ticks=3200, period_ticks=16000, strategy=TrainStrategy.A_ONLY
        )
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(phase_mode=PhaseMode.TRAIN_LOCKED),
            base_phase=9,
            window_anchor=123,
            horizon_tick=35_000,
        )
        for from_tick in (0, 3000, 5000, 15000, 20000):
            expected = reference_next_hear(scanner, schedule, from_tick, 35_000)
            assert next_hear(scanner, from_tick) == expected

    def test_ignore_windows_listens_everywhere(self, kernel):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        # A scan window that only opens well into the future...
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(window_ticks=40, interval_ticks=8192, phase_mode=PhaseMode.FIXED),
            base_phase=0,
            window_anchor=5000,
            horizon_tick=10_000,
        )
        windowed = next_hear(scanner, 0)
        always = next_hear(scanner, 0, ignore_windows=True)
        assert always is not None and windowed is not None
        assert always < windowed

    def test_none_when_unreachable(self, kernel):
        schedule = continuous_inquiry(strategy=TrainStrategy.A_ONLY)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
            base_phase=20,  # train B position, A-only master
            horizon_tick=100_000,
        )
        assert next_hear(scanner, 0) is None


class TestStateMachine:
    def _run_discovery(self, kernel, response_mode=ResponseMode.CONTINUOUS, **overrides):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(
                phase_mode=PhaseMode.FIXED, response_mode=response_mode
            ),
            base_phase=0,
            **overrides,
        )
        scanner.start()
        return master, scanner

    def test_backoff_precedes_first_response(self, kernel):
        master, scanner = self._run_discovery(kernel)
        kernel.run_until(10_000)
        assert scanner.stats.backoffs >= 1
        assert scanner.stats.first_heard_tick is not None
        assert scanner.stats.first_response_tick is not None
        # The response comes after the first hear plus the backoff.
        assert scanner.stats.first_response_tick > scanner.stats.first_heard_tick

    def test_response_is_one_slot_after_hear(self, kernel):
        master, scanner = self._run_discovery(kernel)
        kernel.run_until(10_000)
        tick = master.discovery_tick(SLAVE_ADDRESS)
        assert tick is not None
        # FHS arrives exactly 625 µs after the ID the slave answered.
        assert (tick - scanner.stats.first_heard_tick) % 1 == 0
        assert tick in scanner.stats.response_ticks

    def test_single_mode_stops_after_one_response(self, kernel):
        master, scanner = self._run_discovery(kernel, response_mode=ResponseMode.SINGLE)
        kernel.run_until(50_000)
        assert scanner.stats.responses == 1
        assert scanner.state is ScannerState.DONE

    def test_continuous_mode_keeps_responding(self, kernel):
        master, scanner = self._run_discovery(kernel)
        kernel.run_until(20_000)
        assert scanner.stats.responses > 10

    def test_backoff_each_spaces_responses(self, kernel):
        master, scanner = self._run_discovery(
            kernel, response_mode=ResponseMode.BACKOFF_EACH
        )
        kernel.run_until(50_000)
        # Each response is preceded by its own backoff.
        assert scanner.stats.backoffs >= scanner.stats.responses

    def test_backoff_duration_bounded(self, kernel):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(
                phase_mode=PhaseMode.FIXED, response_mode=ResponseMode.SINGLE,
            ),
            base_phase=0,
        )
        scanner.start()
        kernel.run_until(10_000)
        delay = scanner.stats.first_response_tick - scanner.stats.first_heard_tick
        # Backoff of at most 1023 slots, plus at most one 10 ms pass to re-hear.
        assert delay <= BACKOFF_MAX_SLOTS * TICKS_PER_SLOT + 32 + TICKS_PER_SLOT

    def test_stop_cancels_everything(self, kernel):
        master, scanner = self._run_discovery(kernel)
        kernel.run_until(100)
        scanner.stop()
        responses_at_stop = scanner.stats.responses
        kernel.run_until(50_000)
        assert scanner.stats.responses == responses_at_stop
        assert scanner.state is ScannerState.STOPPED

    def test_start_twice_rejected(self, kernel):
        master, scanner = self._run_discovery(kernel)
        with pytest.raises(RuntimeError):
            scanner.start()

    def test_unreachable_slave_exhausts(self, kernel):
        schedule = continuous_inquiry(strategy=TrainStrategy.A_ONLY)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
            base_phase=20,  # train B, never transmitted
            horizon_tick=5_000,
        )
        scanner.start()
        kernel.run_until(5_000)
        assert scanner.state is ScannerState.EXHAUSTED
        assert master.discovered_count == 0

    def test_delayed_start(self, kernel):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
            base_phase=0,
        )
        scanner.start(at_tick=5_000)
        kernel.run_until(20_000)
        assert scanner.stats.first_heard_tick >= 5_000


class TestResponseTimeout:
    def test_quiet_gap_triggers_fresh_backoff(self, kernel):
        """Between periodic master windows the slave reverts to plain scan."""
        schedule = periodic_inquiry(
            window_ticks=3200, period_ticks=16000, strategy=TrainStrategy.A_ONLY
        )
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
            base_phase=0,
            horizon_tick=40_000,
        )
        scanner.start()
        kernel.run_until(40_000)
        # Three windows -> at least one fresh backoff per window.
        assert scanner.stats.backoffs >= 3

    def test_within_window_no_extra_backoff(self, kernel):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig.continuous(phase_mode=PhaseMode.FIXED),
            base_phase=0,
            horizon_tick=8_000,  # inside the first A dwell
        )
        scanner.start()
        kernel.run_until(8_000)
        # Continuous transmissions on the same train: exactly one backoff.
        assert scanner.stats.backoffs == 1
        assert scanner.stats.responses > 5


class TestBackoffReentry:
    def test_next_window_policy_waits_for_window(self, kernel):
        schedule = continuous_inquiry(start_train=Train.A)
        master = InquiryProcedure(kernel, schedule)
        scanner = make_scanner(
            kernel, schedule, master,
            config=ScanConfig(
                phase_mode=PhaseMode.FIXED,
                backoff_reentry=BackoffReentry.NEXT_WINDOW,
                response_mode=ResponseMode.SINGLE,
            ),
            base_phase=0,
            window_anchor=0,
        )
        scanner.start()
        kernel.run_until(30_000)
        response = scanner.stats.first_response_tick
        assert response is not None
        # The response must land inside a scan window.
        assert (response - TICKS_PER_SLOT) % 4096 < 36
