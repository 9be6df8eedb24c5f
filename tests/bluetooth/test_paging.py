"""Tests for the slot-level page procedure."""

from __future__ import annotations

import pytest

from repro.bluetooth.device import BluetoothDevice, make_devices
from repro.bluetooth.page import PageOutcome
from repro.bluetooth.paging import N_PAGE, PAGE_HANDSHAKE_TICKS, SlotLevelPager
from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream


def one_device(seed: int = 1) -> BluetoothDevice:
    return make_devices(1, RandomStream(seed, "paging"))[0]


def run_page(kernel, target, **kwargs):
    pager = SlotLevelPager(kernel)
    outcomes = []
    pager.page(target, outcomes.append, **kwargs)
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
        assert outcome.predicted_train is outcome.actual_train_at_start
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

    def test_not_scanning_times_out(self, kernel):
        target = one_device(seed=4)
        timeout = 2 * N_PAGE * 32
        pager, outcome = run_page(kernel, target, scanning=False, timeout_ticks=timeout)
        assert outcome.result.outcome is PageOutcome.TIMEOUT
        assert latency(outcome.result) == timeout
        assert pager.timeouts == 1

    def test_stale_estimate_may_pick_wrong_train_and_still_connect(self, kernel):
        """A half-period clock error flips the predicted phase."""
        connected = 0
        wrong = 0
        for seed in range(30):
            pager = SlotLevelPager(kernel)
            target = one_device(seed=100 + seed)
            outcomes = []
            # Error of ~41 phase periods scrambles the phase estimate.
            pager.page(
                target, outcomes.append, estimate_error_ticks=41 * 4096 + 2048
            )
            kernel.run_until(kernel.now + ticks_from_seconds(12))
            outcome = outcomes[0]
            if outcome.result.outcome is PageOutcome.CONNECTED:
                connected += 1
            if outcome.predicted_train is not outcome.actual_train_at_start:
                wrong += 1
        # Wrong-train predictions happen (~50 %), yet the alternation
        # always recovers within the timeout.
        assert wrong >= 5
        assert connected == 30

    def test_wrong_train_costs_about_one_dwell(self, kernel):
        """Average latency with stale estimates exceeds fresh ones."""

        def mean_latency(error):
            total = 0
            count = 25
            for seed in range(count):
                pager = SlotLevelPager(kernel)
                target = one_device(seed=200 + seed)
                outcomes = []
                pager.page(target, outcomes.append, estimate_error_ticks=error)
                kernel.run_until(kernel.now + ticks_from_seconds(12))
                total += latency(outcomes[0].result)
            return total / count

        fresh = mean_latency(0)
        stale = mean_latency(37 * 4096 + 1000)
        # The stale penalty is roughly P(wrong train) * the mean wait
        # for the master's train switch (measured: ~1100 ticks at 25
        # samples; assert a conservative fraction of a dwell).
        assert stale > fresh + 0.15 * N_PAGE * 32

    def test_counters(self, kernel):
        pager = SlotLevelPager(kernel)
        outcomes = []
        pager.page(one_device(seed=5), outcomes.append)
        pager.page(one_device(seed=6), outcomes.append, scanning=False,
                   timeout_ticks=1000)
        kernel.run_until(kernel.now + ticks_from_seconds(20))
        assert pager.attempts == 2
        assert pager.connected == 1
        assert pager.timeouts == 1

    def test_timeout_shorter_than_rendezvous(self, kernel):
        # A timeout of a few slots can expire before the scan window.
        target = one_device(seed=7)
        pager, outcome = run_page(kernel, target, timeout_ticks=8)
        assert outcome.result.outcome in (PageOutcome.TIMEOUT, PageOutcome.CONNECTED)
        assert latency(outcome.result) <= 8 + PAGE_HANDSHAKE_TICKS
