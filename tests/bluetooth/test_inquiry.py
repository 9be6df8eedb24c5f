"""Tests for the master inquiry procedure."""

from __future__ import annotations

from repro.bluetooth.address import BDAddr
from repro.bluetooth.hopping import TrainStrategy, continuous_inquiry, periodic_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.packets import FHSPacket


def fhs(sender_value: int, tick: int, channel: int = 0) -> FHSPacket:
    return FHSPacket(sender=BDAddr(sender_value), clkn=0, channel=channel, tx_tick=tick)


class TestReception:
    def test_first_response_recorded(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        assert master.discovered_count == 1
        assert master.discovery_tick(BDAddr(1)) == 100

    def test_duplicates_keep_first_tick(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(1, 500), 500)
        assert master.discovered_count == 1
        assert master.discovery_tick(BDAddr(1)) == 100
        assert master.responses_received == 2

    def test_last_seen_tracks_duplicates(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(1, 500), 500)
        assert master.last_seen[BDAddr(1)] == 500

    def test_response_outside_window_missed(self, kernel):
        schedule = periodic_inquiry(window_ticks=100, period_ticks=1000)
        master = InquiryProcedure(kernel, schedule)
        master._on_fhs(fhs(1, 500), 500)  # master is serving, not listening
        assert master.discovered_count == 0
        assert master.responses_missed == 1

    def test_callback_fires_once_per_device(self, kernel):
        discovered = []
        master = InquiryProcedure(kernel, continuous_inquiry())
        master.on_discovered = lambda packet, tick: discovered.append((packet.sender, tick))
        master._on_fhs(fhs(1, 10), 10)
        master._on_fhs(fhs(1, 20), 20)
        master._on_fhs(fhs(2, 30), 30)
        assert discovered == [(BDAddr(1), 10), (BDAddr(2), 30)]

    def test_results_sorted_by_discovery_time(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(2, 50), 50)
        master._on_fhs(fhs(1, 60), 60)
        assert [r.address.value for r in master.results] == [2, 1]

    def test_forget_allows_rediscovery(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 10), 10)
        master._on_fhs(fhs(2, 20), 20)
        master.forget(BDAddr(1))
        assert master.discovery_tick(BDAddr(1)) is None
        assert master.last_seen == {BDAddr(2): 20}
        master._on_fhs(fhs(1, 300), 300)
        assert master.discovery_tick(BDAddr(1)) == 300
        assert master.last_seen[BDAddr(1)] == 300

    def test_reset_clears_all(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 10), 10)
        master.reset()
        assert master.discovered_count == 0
        assert master.last_seen == {}


class TestReceiverCapture:
    def test_second_overlapping_fhs_blocked(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(2, 101), 101)  # within the 2-tick FHS capture
        assert master.discovered_count == 1
        assert master.responses_blocked == 1

    def test_fhs_after_capture_window_received(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(2, 102), 102)  # capture ended
        assert master.discovered_count == 2

    def test_capture_disabled(self, kernel):
        master = InquiryProcedure(
            kernel, continuous_inquiry(), receiver_capture=False
        )
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(2, 101), 101)
        assert master.discovered_count == 2
        assert master.responses_blocked == 0

    def test_blocked_device_can_retry_later(self, kernel):
        master = InquiryProcedure(kernel, continuous_inquiry())
        master._on_fhs(fhs(1, 100), 100)
        master._on_fhs(fhs(2, 101), 101)
        master._on_fhs(fhs(2, 200), 200)
        assert master.discovery_tick(BDAddr(2)) == 200


class TestRepeatWindows:
    def test_repeats_at_window_edges_follow_the_schedule(self, kernel):
        # Repeats at each window's first tick, last tick and one tick
        # past it, across two windows and back again: every one is
        # received or missed exactly as the schedule's windows say.
        schedule = periodic_inquiry(window_ticks=100, period_ticks=1000, count=2)
        master = InquiryProcedure(kernel, schedule, receiver_capture=False)
        senders = [BDAddr(value) for value in (1, 2, 3)]
        for sender in senders:
            master._on_fhs(FHSPacket(sender=sender, clkn=0, channel=0, tx_tick=0), 0)
        ticks = [0, 99, 100, 1000, 1099, 1100, 2000, 50, 1050, 999, 1001]
        expected_last = {sender: 0 for sender in senders}
        for index, tick in enumerate(ticks):
            sender = senders[index % len(senders)]
            assert master._rx.on_repeat(sender, tick)
            if schedule.windows.is_active(tick):
                expected_last[sender] = tick
        active = sum(schedule.windows.is_active(tick) for tick in ticks)
        assert master.responses_received == len(senders) + active
        assert master.responses_missed == len(ticks) - active
        assert master.last_seen == expected_last
