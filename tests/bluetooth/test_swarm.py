"""InquiryScanSwarm: pinned piconet behaviour and the row lifecycle.

``TestSwarmEquivalence`` runs small piconets under every scan-config
family and hashes every observable — per-slave state, counters and
response ticks, the channel's collision records, the master's results.
The digests were recorded from the per-slave scanner objects the swarm
replaced, so a changed digest is a behaviour change, never a refactor.
``TestRendezvousCursor`` reruns the same families and checks every
CONTINUOUS response's cursor shortcut against a fresh search.
``TestRepeatPath`` pins what repeat responses write (``last_seen``, the
reachability filter's drops), for the same families and under an
interference band.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import INQUIRY_RESPONSE_DELAY_TICKS
from repro.bluetooth.hopping import (
    Train,
    TrainStrategy,
    continuous_inquiry,
    periodic_inquiry,
)
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import (
    BackoffReentry,
    PhaseMode,
    ResponseMode,
    ScanConfig,
    ScannerState,
    next_listen_rendezvous,
)
from repro.bluetooth.swarm import _NO_CURSOR, InquiryScanSwarm
from repro.radio.interference import SharedBand
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream


def _run_piconet(seed, slave_count, scan_config, schedule_factory, horizon, instrument=None):
    """One piconet; returns every observable.

    ``instrument(swarm)``, if given, is called before any slave starts.
    """
    return _observables(
        *_simulate(seed, slave_count, scan_config, schedule_factory, horizon, instrument)
    )


def _simulate(
    seed, slave_count, scan_config, schedule_factory, horizon, instrument=None, reachable=None
):
    """Run one piconet to ``horizon``; returns its slave handles and master."""
    kernel = Kernel()
    schedule = schedule_factory()
    master = InquiryProcedure(kernel, schedule, name="master", reachable=reachable)
    root = RandomStream(seed, "swarm-ab")
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=scan_config, name="s")
    if instrument is not None:
        instrument(swarm)
    handles = []
    for index in range(slave_count):
        rng = root.child("slave", str(index))
        clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
        base_phase = rng.randint(0, 31)
        anchor = rng.randint(0, scan_config.interval_ticks - 1)
        handle = swarm.add_slave(
            BDAddr(0x1000 + index),
            rng=rng.child("draws"),
            clock=clock,
            base_phase=base_phase,
            window_anchor=anchor,
            horizon_tick=horizon,
            name=f"slave-{index}",
        )
        handle.start()
        handles.append(handle)
    kernel.run_until(horizon)
    return handles, master


def _observables(handles, master):
    slaves = [
        (
            h.state.value,
            h.stats.ids_heard,
            h.stats.backoffs,
            h.stats.responses,
            h.stats.first_heard_tick,
            h.stats.first_response_tick,
            tuple(h.stats.response_ticks),
        )
        for h in handles
    ]
    stats = master.channel.stats
    collisions = tuple((c.tick, c.rf_channel, c.senders) for c in stats.collisions)
    return (
        slaves,
        (stats.transmissions, stats.delivered, stats.collided, collisions),
        (master.responses_received, master.responses_missed, master.responses_blocked),
        tuple((str(r.address), r.clkn, r.discovered_tick) for r in master.results),
    )


def _digest(observables) -> str:
    return hashlib.sha256(repr(observables).encode("utf-8")).hexdigest()


CASES = [
    pytest.param(
        ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED),
        lambda: periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY),
        64_000,
        8,
        "ba406ffb5889aa8c8a8e2a3caa955a8ac12c32eb95308ec9e5de3757e2447fba",
        id="figure2-style-train-locked",
    ),
    pytest.param(
        ScanConfig(),
        lambda: continuous_inquiry(start_train=Train.B),
        200_000,
        5,
        "534b01123b08838d58d7e95535a8674e2ade0666366abbddbd36f7e5383728bd",
        id="default-windows-sequence",
    ),
    pytest.param(
        ScanConfig.continuous(response_mode=ResponseMode.BACKOFF_EACH),
        lambda: continuous_inquiry(),
        100_000,
        4,
        "010d0d0f7bb1a787049248211d3485c0633bd3c4d29f60abe666016ec6128af9",
        id="backoff-each",
    ),
    pytest.param(
        ScanConfig(
            response_mode=ResponseMode.SINGLE,
            backoff_reentry=BackoffReentry.NEXT_WINDOW,
        ),
        lambda: continuous_inquiry(),
        300_000,
        4,
        "ea51d7b6ecd3529879465d238487b0d16e077a3d6b8a75d82023ce0ddf9a9186",
        id="single-next-window",
    ),
    pytest.param(
        ScanConfig(phase_mode=PhaseMode.FIXED),
        lambda: continuous_inquiry(),
        200_000,
        3,
        "69733b60f59f000d882bcfb946c74e0cb2f0e9b1507b928cae27baf84fb6630a",
        id="fixed-phase",
    ),
    pytest.param(
        ScanConfig.interleaved_with_page_scan(),
        lambda: continuous_inquiry(),
        400_000,
        3,
        "1043549c8e189a4d7e2b7d64aebb309ca9a45dc7f135c6483ff69dee58b86fcc",
        id="interleaved-page-scan",
    ),
]


class TestSwarmEquivalence:
    @pytest.mark.parametrize(
        "scan_config, schedule_factory, horizon, slaves, expected", CASES
    )
    def test_swarm_matches_scanners(
        self, scan_config, schedule_factory, horizon, slaves, expected
    ):
        run = _run_piconet(99, slaves, scan_config, schedule_factory, horizon)
        assert _digest(run) == expected

    def test_many_seeds_single_slave(self):
        # One slave, many clock/phase draws: sweeps the rendezvous
        # arithmetic across offsets without a master-side confounder.
        runs = [
            _run_piconet(seed, 1, ScanConfig(), continuous_inquiry, 120_000)
            for seed in range(20)
        ]
        assert _digest(runs) == (
            "9f46d96c1a1aecb83987d5e8d16494d254ea2f91dcaa18a66ff4b1d3e8ae9ae7"
        )


def _repeat_observables(master):
    """What a lone repeat from a known sender writes besides the counts:
    ``last_seen``, and what the reachability filter dropped."""
    return (
        sorted((str(address), tick) for address, tick in master.last_seen.items()),
        master.channel.stats.filtered,
    )


#: ``_repeat_observables`` digest per ``CASES`` id.
REPEAT_DIGESTS = {
    "figure2-style-train-locked": "173da0a7335a32625206aadbef1bc7a71a1560b1960db96cedb578134eef19f5",
    "default-windows-sequence": "be8110fce3d5bb943c3d8835d8229febfead8e35335cf7fa436212c47b0ee724",
    "backoff-each": "e55cfa9b0936d2322dc04f2d0985352f36a96fa88ead992eff8fe707a2800d0f",
    "single-next-window": "cea778ff0f7c7d1dc2898eebec18508e8d9b28dc1df8b714363860412b90963a",
    "fixed-phase": "d1d864299c1acce94d6234e31090703c1ac3a5e7dab857f5721818920c7c8241",
    "interleaved-page-scan": "e61362fc6583b870a073bc68ca8d936939ee075a4929fa66bd6ae4b827014fdb",
}


class TestRepeatPath:
    """Pins ``last_seen`` and the reachability filter, which a repeat
    response from an already discovered sender still updates."""

    @pytest.mark.parametrize(
        "scan_config, schedule_factory, horizon, slaves, expected",
        [
            pytest.param(*case.values[:4], REPEAT_DIGESTS[case.id], id=case.id)
            for case in CASES
        ],
    )
    def test_last_seen_and_filtered(
        self, scan_config, schedule_factory, horizon, slaves, expected
    ):
        _, master = _simulate(99, slaves, scan_config, schedule_factory, horizon)
        assert _digest(_repeat_observables(master)) == expected

    def test_interference_band_filter(self):
        # Three always-active neighbours corrupt each response with
        # probability ~3.8 %, one band draw per transmitter in group order.
        # Sixteen train-locked responders also collide, so the filter
        # runs ahead of the collision rule on shared groups.
        band = SharedBand(RandomStream(5, "band"))
        band.register("master", lambda tick: True)
        for neighbour in ("n1", "n2", "n3"):
            band.register(neighbour, lambda tick: True)
            band.connect("master", neighbour)
        handles, master = _simulate(
            99,
            16,
            ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED),
            lambda: periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY),
            64_000,
            reachable=band.survival_predicate("master"),
        )
        stats = master.channel.stats
        assert band.stats.corrupted > 0 and stats.filtered == band.stats.corrupted
        assert stats.collision_events > 0
        observed = (
            _observables(handles, master),
            _repeat_observables(master),
            (band.stats.checks, band.stats.corrupted),
        )
        assert _digest(observed) == (
            "2d236baca4acbd452b4d716a0cf6fa4212cf598d37c818994a8f570d8eb570d1"
        )


def _check_cursor(swarm, checked):
    """Wrap ``swarm``'s FHS group filing (its channel announce of each
    bucket's responder rows) so that every CONTINUOUS response asserts
    that the next hear its row filed — from the rendezvous cursor or a
    fresh search — equals a fresh ``next_hear(row, now + 1)``.

    A bucket's responders are filed into their group after every row of
    the bucket has been processed and re-filed, so each row is checked
    against its filing in the due index (none when the row retired).
    Appends each checked ``(row, now)`` to ``checked``.  The fresh search
    would record its own cursor, so the row's cursor is restored after
    it: the run continues on exactly the state the swarm built.
    """
    announce = swarm._announce
    due = swarm._due

    def checking_announce(tx_tick, rows):
        if swarm.config.response_mode is ResponseMode.CONTINUOUS:
            now = tx_tick - INQUIRY_RESPONSE_DELAY_TICKS
            for row in rows:
                filed = [due_tick for due_tick, bucket in due.items() if row in bucket]
                cursor = swarm._cursors[row]
                fresh = swarm.next_hear(row, now + 1)
                swarm._cursors[row] = cursor
                assert filed == ([] if fresh is None else [fresh]), (row, now, filed, fresh)
                checked.append((row, now))
        return announce(tx_tick, rows)

    swarm._announce = checking_announce


class TestRendezvousCursor:
    @pytest.mark.parametrize(
        "scan_config, schedule_factory, horizon, slaves, expected", CASES
    )
    def test_cursor_matches_fresh_search(
        self, scan_config, schedule_factory, horizon, slaves, expected
    ):
        checked = []
        run = _run_piconet(
            99, slaves, scan_config, schedule_factory, horizon,
            instrument=lambda swarm: _check_cursor(swarm, checked),
        )
        assert _digest(run) == expected
        if scan_config.response_mode is ResponseMode.CONTINUOUS:
            assert checked

    def test_after_backoff_cursor_not_reused_by_windowed_scan(self, kernel):
        # Windowed scan, IMMEDIATE re-entry: the after-backoff listen
        # ignores the scan windows, so the ID it hears may lie outside
        # the slave's own window.  The response that follows must find
        # its next hear under the window, not in the window-free
        # segment the after-backoff search walked.
        config = ScanConfig()
        assert config.backoff_reentry is BackoffReentry.IMMEDIATE
        assert not config.is_continuous
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config, name="ab")
        handle = swarm.add_slave(
            BDAddr(0xD), rng=RandomStream(8, "ab"), clock=BluetoothClock(offset=4321)
        )
        row = handle.row
        for start in range(0, 200_000, 97):
            heard = handle.next_hear(start, ignore_windows=True)
            following = handle.next_hear(heard + 1, ignore_windows=True)
            if handle.next_hear(heard) != heard and following != handle.next_hear(heard + 1):
                break
        else:
            pytest.fail("no out-of-window hear with a distinguishing next hear")
        checked = []
        _check_cursor(swarm, checked)
        kernel.run_until(start)
        swarm._step_after_backoff(row, start)
        kernel.run_until(heard + 1)
        assert checked == [(row, heard)]
        assert handle.stats.response_ticks == [heard + INQUIRY_RESPONSE_DELAY_TICKS]
        assert handle.next_hear(heard + 1) != following


    @pytest.mark.parametrize(
        "phase_mode, clock_offset",
        [
            pytest.param(PhaseMode.FIXED, 0, id="fixed-phase"),
            # Phase segments [2048 + 4096k, 6144 + 4096k): every other
            # one straddles a multiple of 8192.
            pytest.param(PhaseMode.TRAIN_LOCKED, 2048, id="train-locked-straddling"),
        ],
    )
    def test_continuous_run_crosses_block_edges(self, kernel, phase_mode, clock_offset):
        # A single-train master never switches trains, so a responder on
        # one of its positions answers once per pass for as long as its
        # segment lasts, across every multiple of 8192 ticks.
        horizon = 4 * 8192
        config = ScanConfig.continuous(phase_mode=phase_mode)
        schedule = continuous_inquiry(strategy=TrainStrategy.A_ONLY)
        master = InquiryProcedure(kernel, schedule, name="m")
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config, name="edge")
        handle = swarm.add_slave(
            BDAddr(0xF), rng=RandomStream(9, "edge"), clock=BluetoothClock(offset=clock_offset),
            base_phase=3, horizon_tick=horizon,
        )
        checked = []
        _check_cursor(swarm, checked)
        handle.start()
        kernel.run_until(horizon)
        hears = [t - INQUIRY_RESPONSE_DELAY_TICKS for t in handle.stats.response_ticks]
        crossings = [
            h for h in hears if h // 8192 < (h + 32) // 8192 and h + 32 in hears
        ]
        assert len(crossings) >= 2
        assert {(handle.row, h) for h in crossings} <= set(checked)


class TestSwarmLifecycle:
    def _swarm(self, kernel, horizon=1 << 20):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=ScanConfig(), name="life")
        rng = RandomStream(5, "life")
        handle = swarm.add_slave(
            BDAddr(0xA), rng=rng, clock=BluetoothClock(offset=123), horizon_tick=horizon
        )
        return swarm, handle

    def test_initial_state_idle(self, kernel):
        _, handle = self._swarm(kernel)
        assert handle.state is ScannerState.IDLE
        assert handle.stats.ids_heard == 0

    def test_double_start_rejected(self, kernel):
        _, handle = self._swarm(kernel)
        handle.start()
        with pytest.raises(RuntimeError):
            handle.start()

    def test_stop_freezes_row(self, kernel):
        _, handle = self._swarm(kernel)
        handle.start()
        kernel.run_until(10_000)
        heard_at_stop = handle.stats.ids_heard
        handle.stop()
        kernel.run_until(200_000)
        assert handle.state is ScannerState.STOPPED
        assert handle.stats.ids_heard == heard_at_stop

    def test_exhausted_past_horizon(self, kernel):
        _, handle = self._swarm(kernel, horizon=4)
        handle.start()
        kernel.run_until(100)
        assert handle.state is ScannerState.EXHAUSTED

    def test_base_phase_validated(self, kernel):
        swarm, _ = self._swarm(kernel)
        with pytest.raises(ValueError):
            swarm.add_slave(BDAddr(0xB), rng=RandomStream(6, "x"), base_phase=32)

    def test_handle_surface(self, kernel):
        swarm, handle = self._swarm(kernel)
        assert handle.address == BDAddr(0xA)
        assert handle.name == str(BDAddr(0xA))
        assert handle.listen_position(0) == swarm.listen_position(handle.row, 0)
        assert swarm.slave_count == 1

    def test_batch_telemetry(self, kernel):
        swarm, handle = self._swarm(kernel)
        handle.start()
        kernel.run_until(50_000)
        assert swarm.advances > 0
        assert swarm.slave_steps > 0
        stats = handle.stats
        assert swarm.scan_totals() == (stats.ids_heard, stats.backoffs, stats.responses)
        assert stats.responses > 0

    def test_finished_rows_drop_their_cursor(self, kernel):
        # A finished row must not stand on a rendezvous: its cursor is
        # reset, so no later response can take it.
        swarm, stopped = self._swarm(kernel, horizon=200_000)
        exhausted = swarm.add_slave(
            BDAddr(0xE), rng=RandomStream(6, "x"), clock=BluetoothClock(offset=77),
            horizon_tick=60_000,
        )
        stopped.start()
        exhausted.start()
        kernel.run_until(50_000)
        assert swarm._cursors[stopped.row] != _NO_CURSOR
        stopped.stop()
        kernel.run_until(100_000)
        assert exhausted.state is ScannerState.EXHAUSTED
        assert exhausted.stats.responses > 0
        assert swarm._cursors[stopped.row] == _NO_CURSOR
        assert swarm._cursors[exhausted.row] == _NO_CURSOR

    def test_stopped_row_is_not_a_step(self, kernel):
        swarm, handle = self._swarm(kernel)
        handle.start(at_tick=100)
        handle.stop()
        kernel.run_until(1_000)
        assert swarm.advances == 1
        assert swarm.slave_steps == 0

    def test_next_hear_matches_scanner(self, kernel):
        # The swarm's fast path (closed-form runs, idle-air jumps)
        # against the plain rendezvous primitive of the scan module.
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        clock = BluetoothClock(offset=987_654)
        config = ScanConfig()
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config, name="nh")
        handle = swarm.add_slave(
            BDAddr(0xC), rng=RandomStream(7, "a"), clock=clock, base_phase=9
        )
        for from_tick in (0, 1, 37, 4095, 4096, 70_000):
            for ignore in (False, True):
                expected = next_listen_rendezvous(
                    schedule=schedule,
                    listen_position=handle.listen_position,
                    clock=clock,
                    fixed_phase=False,
                    window_ticks=config.window_ticks,
                    interval_ticks=config.interval_ticks,
                    window_anchor=clock.offset % config.interval_ticks,
                    from_tick=from_tick,
                    before_tick=1 << 62,
                    always_listening=ignore,
                )
                assert handle.next_hear(from_tick, ignore) == expected, (from_tick, ignore)
