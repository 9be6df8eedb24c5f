"""Tests for the slot-level page procedure."""

from __future__ import annotations

from repro.bluetooth import paging
from repro.bluetooth.device import BluetoothDevice, make_devices
from repro.bluetooth.hopping import train_of_position
from repro.bluetooth.page import PageOutcome
from repro.bluetooth.paging import PAGE_HANDSHAKE_TICKS, PAGE_TIMEOUT_TICKS, SlotLevelPager
from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream


def one_device(seed: int = 1) -> BluetoothDevice:
    return make_devices(1, RandomStream(seed, "paging"))[0]


def run_page(kernel, target):
    pager = SlotLevelPager(kernel)
    outcomes = []
    pager.page(target, outcomes.append)
    kernel.run_until(kernel.now + ticks_from_seconds(20))
    assert len(outcomes) == 1
    return pager, outcomes[0]


def latency(result) -> int:
    return result.finished_tick - result.started_tick


class TestSlotLevelPaging:
    def test_fresh_estimate_connects_within_one_scan_interval(self, kernel):
        target = one_device()
        pager, outcome = run_page(kernel, target)
        assert outcome.result.outcome is PageOutcome.CONNECTED
        # The master starts on the train of the slave's scan frequency.
        clkn = target.clock.clkn(outcome.result.started_tick)
        position = (target.base_phase + clkn // 4096) % 32
        assert outcome.predicted_train is train_of_position(position)
        # Rendezvous waits at most two 1.28 s page-scan intervals (one
        # interval, plus one more when the slave's phase crosses a
        # boundary between the prediction and its next window), plus the
        # handshake.
        assert latency(outcome.result) <= 2 * 4096 + PAGE_HANDSHAKE_TICKS

    def test_handshake_is_six_slots(self, kernel):
        target = one_device(seed=2)
        pager, outcome = run_page(kernel, target)
        assert (
            outcome.result.finished_tick
            == outcome.rendezvous_tick + PAGE_HANDSHAKE_TICKS
        )

    def test_rendezvous_lands_in_a_scan_window(self, kernel):
        target = one_device(seed=3)
        pager, outcome = run_page(kernel, target)
        anchor = target.clock.offset % 4096
        offset_in_interval = (outcome.rendezvous_tick - anchor) % 4096
        assert offset_in_interval < 36  # inside the 11.25 ms window

    def test_not_scanning_times_out(self, kernel, monkeypatch):
        # A slave that never opens a page-scan window is never heard.
        monkeypatch.setattr(paging, "next_listen_rendezvous", lambda **_: None)
        pager, outcome = run_page(kernel, one_device(seed=4))
        assert outcome.result.outcome is PageOutcome.TIMEOUT
        assert outcome.rendezvous_tick is None
        assert latency(outcome.result) == PAGE_TIMEOUT_TICKS
        assert pager.timeouts == 1

    def test_counters(self, kernel):
        pager = SlotLevelPager(kernel)
        outcomes = []
        pager.page(one_device(seed=5), outcomes.append)
        pager.page(one_device(seed=6), outcomes.append)
        kernel.run_until(kernel.now + ticks_from_seconds(20))
        assert pager.attempts == 2
        assert pager.connected == 2
        assert pager.timeouts == 0
