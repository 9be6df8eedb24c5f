"""InquiryScanSwarm: pinned piconet behaviour and the row lifecycle.

``TestSwarmEquivalence`` runs small piconets under every scan-config
family and hashes every observable — per-slave state, counters and
response ticks, the channel's collision records, the master's results.
The digests were recorded from the per-slave scanner objects the swarm
replaced, so a changed digest is a behaviour change, never a refactor.
``TestRendezvousCursor`` reruns the same families and checks every
CONTINUOUS response's cursor shortcut against a fresh search, responses
answered by a pass replay included.
``TestRepeatPath`` pins what repeat responses write (``last_seen``, the
reachability filter's drops), for the same families and under an
interference band, and checks that a traced piconet takes the same
packet-free repeat path as an untraced one.
``TestRowFootprint`` checks what a row keeps: its backoff generator
only while it is live, and its response ticks in an ``array``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from array import array

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import (
    BACKOFF_MAX_SLOTS,
    BIPS_INQUIRY_WINDOW_TICKS,
    BIPS_OPERATIONAL_CYCLE_TICKS,
    INQUIRY_RESPONSE_DELAY_TICKS,
)
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
from repro.bluetooth import swarm as swarm_module
from repro.bluetooth.packets import FHSPacket
from repro.bluetooth.swarm import _NO_CURSOR, InquiryScanSwarm
from repro.core.config import BIPSConfig
from repro.obs.tracing import SpanTracer
from repro.radio.interference import SharedBand
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed


def _run_piconet(seed, slave_count, scan_config, schedule_factory, horizon, instrument=None):
    """One piconet; returns every observable.

    ``instrument(swarm)``, if given, is called before any slave starts.
    """
    return _observables(
        *_simulate(seed, slave_count, scan_config, schedule_factory, horizon, instrument)
    )


def _simulate(
    seed,
    slave_count,
    scan_config,
    schedule_factory,
    horizon,
    instrument=None,
    reachable=None,
    spans=None,
):
    """Run one piconet to ``horizon``; returns its slave handles and master.

    ``horizon`` is every row's horizon tick, or a tuple of them that the
    rows take in turn; the run ends at the latest.
    """
    kernel = Kernel(spans=spans)
    schedule = schedule_factory()
    master = InquiryProcedure(
        kernel, schedule, name="master", reachable=reachable, spans=spans
    )
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
            seed=derive_seed(rng.seed, "draws"),
            clock=clock,
            base_phase=base_phase,
            window_anchor=anchor,
            horizon_tick=_row_horizon(horizon, index),
        )
        handle.start()
        handles.append(handle)
    kernel.run_until(max(horizon) if isinstance(horizon, tuple) else horizon)
    return handles, master


def _row_horizon(horizon, index):
    return horizon[index % len(horizon)] if isinstance(horizon, tuple) else horizon


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
    # The BIPS handheld cycle under the §5 master: 3.84 s windows every
    # 15.4 s on alternating trains, over three windows, with horizons
    # that end some rows mid-window.
    pytest.param(
        BIPSConfig().handheld_scan_config(),
        lambda: periodic_inquiry(BIPS_INQUIRY_WINDOW_TICKS, BIPS_OPERATIONAL_CYCLE_TICKS),
        (3 * BIPS_OPERATIONAL_CYCLE_TICKS, 55_000, 104_000, 6_000),
        40,
        "bf129c06f5334e6a560d0d089211f06bae6c8b59f45b9d8fe984784e2bbf30f6",
        id="handheld-periodic",
    ),
    # Windowed BACKOFF_EACH: after a backoff the row listens under its
    # own windows (NEXT_WINDOW), or ignores them (IMMEDIATE).
    pytest.param(
        ScanConfig(
            window_ticks=2048,
            response_mode=ResponseMode.BACKOFF_EACH,
            backoff_reentry=BackoffReentry.NEXT_WINDOW,
        ),
        lambda: continuous_inquiry(),
        200_000,
        6,
        "b3033add7186db27f65e9af1eadf338f1561f403bfb683386b40c55b2ea3d17d",
        id="windowed-backoff-each-next-window",
    ),
    pytest.param(
        ScanConfig(window_ticks=2048, response_mode=ResponseMode.BACKOFF_EACH),
        lambda: continuous_inquiry(),
        200_000,
        6,
        "6adb13c71fa54ca09c4e52a27f8d6607f7c909e3a24c24610a74cd0f6bd87ac5",
        id="windowed-backoff-each-immediate",
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

    @pytest.mark.parametrize(
        "case_id, resumes",
        [
            ("handheld-periodic", True),
            ("windowed-backoff-each-next-window", True),
            # Re-entering at once, a windowed scan searches without its
            # windows after a backoff, but an open cursor lies in one of
            # them, so it gives the same next hear.
            ("windowed-backoff-each-immediate", True),
        ],
    )
    def test_after_backoff_resumes_from_the_cursor_or_searches(
        self, monkeypatch, case_id, resumes
    ):
        searches = []
        search = InquiryScanSwarm.next_hear

        def counting_next_hear(swarm, row, from_tick, ignore_windows=False):
            if swarm._action[row] == swarm_module._ACT_BACKOFF_END:
                searches.append(row)
            return search(swarm, row, from_tick, ignore_windows)

        monkeypatch.setattr(InquiryScanSwarm, "next_hear", counting_next_hear)
        case = next(case for case in CASES if case.id == case_id)
        scan_config, schedule_factory, horizon, slaves, expected = case.values
        handles, master = _simulate(99, slaves, scan_config, schedule_factory, horizon)
        assert _digest(_observables(handles, master)) == expected
        # Every backoff but those still running ended in one listen.
        listens = sum(h.stats.backoffs for h in handles) - sum(
            h.state is ScannerState.BACKOFF for h in handles
        )
        assert 0 < len(searches) < listens if resumes else 0 < len(searches) == listens

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
    "handheld-periodic": "13b412974c9930dae2c5a593124613e80d1aa2a2a8d2243c1b5086c32e541358",
    "windowed-backoff-each-next-window": "e9702409043177b857d958c29da4f6b867ff6b3c13a9beb515ebc284c041a4bf",
    "windowed-backoff-each-immediate": "3933004e97b3cdd18a6b4ae8cecfb9074a0dd2c0f915d1d8b11d1d82768509f3",
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

    def test_traced_swarm_takes_the_repeat_path(self, monkeypatch):
        # Spans on, a repeat from a known sender still costs no packet:
        # one FHSPacket per discovery, one bt.response per response.
        built = []

        def counting_packet(*fields):
            built.append(fields[0])
            return FHSPacket(*fields)

        monkeypatch.setattr(swarm_module, "FHSPacket", counting_packet)
        case = CASES[0]
        scan_config, schedule_factory, horizon, slaves, expected = case.values
        spans = SpanTracer()
        handles, master = _simulate(
            99, slaves, scan_config, schedule_factory, horizon, spans=spans
        )
        assert _digest(_observables(handles, master)) == expected
        assert master.responses_received > master.discoveries > 0
        assert len(built) == master.discoveries
        responses = sum(1 for span in spans.spans if span.name == "bt.response")
        assert responses == master.responses_received


def _check_cursor(swarm, checked):
    """Check every CONTINUOUS response's next hear against a fresh search.

    Wraps ``swarm``'s two ways of answering: its FHS group filing (its
    channel announce of each bucket's responder rows) and its pass replay
    (``_replay``, which answers K passes of a steady responder set at
    once).  Each response asserts that the next hear its row filed — from
    the rendezvous cursor or a fresh search — equals a fresh
    ``next_hear(row, now + 1)``.

    A bucket's responders are filed into their group after every row of
    the bucket has been processed and re-filed, so each row is checked
    against its filing in the due index (none when the row retired).  A
    replayed row answered once per pass: each response but the last is
    checked against the next one's hear, the last against the filing the
    replay left.  Appends each checked ``(row, now)`` to ``checked``.  The
    fresh search would record its own cursor, so the row's cursor is
    restored after it: the run continues on exactly the state the swarm
    built.
    """
    announce = swarm._announce
    replay = swarm._replay
    due = swarm._due

    def filed(row):
        return [due_tick for due_tick, bucket in due.items() if row in bucket]

    def check(row, now, following):
        cursor = swarm._cursors[row]
        fresh = swarm.next_hear(row, now + 1)
        swarm._cursors[row] = cursor
        assert following == ([] if fresh is None else [fresh]), (row, now, following, fresh)
        checked.append((row, now))

    def checking_announce(tx_tick, rows):
        if swarm.config.response_mode is ResponseMode.CONTINUOUS:
            now = tx_tick - INQUIRY_RESPONSE_DELAY_TICKS
            for row in rows:
                check(row, now, filed(row))
        return announce(tx_tick, rows)

    def checking_replay(tick, limit):
        before = list(swarm._responses)
        passes = replay(tick, limit)
        for row, count in enumerate(before):
            added = swarm._responses[row] - count
            if added:
                hears = [
                    tx - INQUIRY_RESPONSE_DELAY_TICKS
                    for tx in swarm._response_ticks[row][-added:]
                ]
                for now, following in zip(hears, hears[1:]):
                    check(row, now, [following])
                check(row, hears[-1], filed(row))
        return passes

    swarm._announce = checking_announce
    swarm._replay = checking_replay


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
            BDAddr(0xD), seed=derive_seed(8, "ab"), clock=BluetoothClock(offset=4321)
        )
        row = handle.row
        for start in range(0, 200_000, 97):
            heard = swarm.next_hear(row, start, ignore_windows=True)
            following = swarm.next_hear(row, heard + 1, ignore_windows=True)
            if swarm.next_hear(row, heard) != heard and following != swarm.next_hear(
                row, heard + 1
            ):
                break
        else:
            pytest.fail("no out-of-window hear with a distinguishing next hear")
        checked = []
        _check_cursor(swarm, checked)
        kernel.run_until(start)
        # File the row's backoff end at ``start`` and let the drain take it.
        swarm._state[row] = swarm_module._BACKOFF
        swarm._action[row] = swarm_module._ACT_BACKOFF_END
        swarm._queue(start, row)
        kernel.run_until(heard + 1)
        assert checked == [(row, heard)]
        assert handle.stats.response_ticks == [heard + INQUIRY_RESPONSE_DELAY_TICKS]
        assert swarm.next_hear(row, heard + 1) != following


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
            BDAddr(0xF), seed=derive_seed(9, "edge"), clock=BluetoothClock(offset=clock_offset),
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
        handle = swarm.add_slave(
            BDAddr(0xA),
            seed=derive_seed(5, "life"),
            clock=BluetoothClock(offset=123),
            horizon_tick=horizon,
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
            swarm.add_slave(BDAddr(0xB), seed=derive_seed(6, "x"), base_phase=32)

    def test_handle_surface(self, kernel):
        swarm, handle = self._swarm(kernel)
        assert handle.listen_position(0) == swarm.listen_position(handle.row, 0)
        assert handle.row == 0

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
            BDAddr(0xE), seed=derive_seed(6, "x"), clock=BluetoothClock(offset=77),
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
            BDAddr(0xC), seed=derive_seed(7, "a"), clock=clock, base_phase=9
        )
        for from_tick in (0, 1, 37, 4095, 4096, 70_000):
            for ignore in (False, True):
                # A window as long as the interval listens throughout.
                window_ticks = config.interval_ticks if ignore else config.window_ticks
                expected = next_listen_rendezvous(
                    schedule=schedule,
                    listen_position=handle.listen_position,
                    clock=clock,
                    fixed_phase=False,
                    window_ticks=window_ticks,
                    interval_ticks=config.interval_ticks,
                    window_anchor=clock.offset % config.interval_ticks,
                    from_tick=from_tick,
                    before_tick=1 << 62,
                )
                assert swarm.next_hear(handle.row, from_tick, ignore) == expected, (
                    from_tick,
                    ignore,
                )


def _generator_of(swarm, row):
    """The generator behind the row's backoff draws, or None."""
    return getattr(swarm._draws[row], "__self__", None)


class TestRowFootprint:
    """A row holds its backoff generator only while it is live: built
    from its seed at start, dropped when it retires."""

    def _swarm(self, kernel, mode=ResponseMode.BACKOFF_EACH, horizon=1 << 30):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        config = ScanConfig.continuous(response_mode=mode)
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config, name="fp")
        handle = swarm.add_slave(
            BDAddr(0xF0),
            seed=derive_seed(11, "footprint"),
            clock=BluetoothClock(offset=321),
            base_phase=5,
            horizon_tick=horizon,
        )
        return swarm, handle

    def test_late_row_draws_what_an_eager_stream_draws(self, kernel):
        eager = RandomStream(11, "footprint")
        swarm, handle = self._swarm(kernel)
        kernel.run_until(30_000)
        handle.start()
        drawn = []
        draw = swarm._draws[handle.row]

        def recording(bits):
            value = draw(bits)
            drawn.append(value)
            return value

        swarm._draws[handle.row] = recording
        kernel.run_until(300_000)
        slots = [value for value in drawn if value <= BACKOFF_MAX_SLOTS]
        assert len(slots) == handle.stats.backoffs > 10
        assert slots == [eager.randint(0, BACKOFF_MAX_SLOTS) for _ in slots]

    def test_unstarted_row_holds_no_generator(self, kernel):
        swarm, handle = self._swarm(kernel)
        kernel.run_until(10_000)
        assert _generator_of(swarm, handle.row) is None
        handle.stop()
        assert _generator_of(swarm, handle.row) is None

    @pytest.mark.parametrize(
        "mode, horizon, ending",
        [
            pytest.param(ResponseMode.BACKOFF_EACH, 1 << 30, ScannerState.STOPPED, id="stopped"),
            pytest.param(ResponseMode.BACKOFF_EACH, 20_000, ScannerState.EXHAUSTED, id="exhausted"),
            pytest.param(ResponseMode.SINGLE, 1 << 30, ScannerState.DONE, id="single-done"),
        ],
    )
    def test_retired_row_frees_its_generator_without_the_cyclic_gc(
        self, kernel, mode, horizon, ending
    ):
        gc.disable()
        try:
            swarm, handle = self._swarm(kernel, mode, horizon)
            handle.start()
            generator = _generator_of(swarm, handle.row)
            assert isinstance(generator, random.Random)
            ref = weakref.ref(generator)
            del generator
            if ending is ScannerState.STOPPED:
                kernel.run_until(10_000)
                assert ref() is not None  # live while the row scans
                handle.stop()
            kernel.run_until(300_000)
            assert handle.state is ending
            assert handle.stats.backoffs > 0
            assert _generator_of(swarm, handle.row) is None
            assert ref() is None
        finally:
            gc.enable()

    def test_stats_return_the_sent_ticks_as_a_list(self, kernel):
        swarm, handle = self._swarm(kernel)
        sent = []
        announce = swarm._announce

        def recording(tx_tick, rows):
            sent.extend(tx_tick for row in rows if row == handle.row)
            return announce(tx_tick, rows)

        swarm._announce = recording
        handle.start()
        kernel.run_until(300_000)
        assert isinstance(swarm._response_ticks[handle.row], array)
        ticks = handle.stats.response_ticks
        assert type(ticks) is list
        assert ticks == sent
        assert len(sent) > 10
