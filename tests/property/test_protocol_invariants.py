"""Property-based invariants of the protocol machinery."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.device import BluetoothDevice
from repro.bluetooth.hopping import Train, TrainStrategy, continuous_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.packets import FHSPacket
from repro.bluetooth.page import PageOutcome
from repro.bluetooth.paging import PAGE_HANDSHAKE_TICKS, SlotLevelPager
from repro.bluetooth.scan import ResponseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.radio.channel import ResponseChannel
from repro.sim.kernel import Kernel
from repro.sim.rng import derive_seed

# -- channel conservation ---------------------------------------------------


def _deliver_in_tick_order(channel, opened):
    """Deliver every opened ``(tick, rf)`` group as its opener would:
    by tick, and in opening order within a tick."""
    for tick, rf in sorted(opened, key=lambda key: key[0]):
        channel.deliver(tick, rf)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2000),  # tick
            st.integers(0, 5),  # rf channel
            st.integers(1, 30),  # sender id
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60)
def test_channel_conserves_packets(announcements):
    """delivered + collided + filtered == transmissions, always."""
    kernel = Kernel()
    received = []
    channel = ResponseChannel(
        kernel,
        lambda pkt, tick: received.append(pkt),
        reachable=lambda sender, tick: sender.value % 3 != 0,  # drop a third
    )
    opened = []
    for tick, rf, sender in announcements:
        if channel.schedule_fhs(
            tick, rf, FHSPacket(sender=BDAddr(sender), clkn=0, channel=rf, tx_tick=tick)
        ):
            opened.append((tick, rf))
    _deliver_in_tick_order(channel, opened)
    stats = channel.stats
    assert stats.transmissions == len(announcements)
    assert stats.delivered + stats.collided + stats.filtered == stats.transmissions
    assert stats.delivered == len(received)
    assert not channel._pending


@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 2), st.integers(1, 10)),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_channel_collision_groups_have_size_at_least_two(announcements):
    kernel = Kernel()
    channel = ResponseChannel(kernel, lambda pkt, tick: None)
    opened = []
    for tick, rf, sender in announcements:
        if channel.schedule_fhs(
            tick, rf, FHSPacket(sender=BDAddr(sender), clkn=0, channel=rf, tx_tick=tick)
        ):
            opened.append((tick, rf))
    _deliver_in_tick_order(channel, opened)
    for record in channel.stats.collisions:
        assert len(record.senders) >= 2


# -- discovery invariants -----------------------------------------------------


@given(
    clock_offset=st.integers(0, CLKN_WRAP - 1),
    base_phase=st.integers(0, 31),
    start_train=st.sampled_from(list(Train)),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_discovery_ordering_invariants(clock_offset, base_phase, start_train, seed):
    """First hear <= first response <= discovery; response = hear + 1 slot."""
    kernel = Kernel()
    schedule = continuous_inquiry(start_train=start_train)
    master = InquiryProcedure(kernel, schedule)
    address = BDAddr(0xABC)
    swarm = InquiryScanSwarm(
        kernel,
        schedule,
        master.channel,
        config=ScanConfig.continuous(response_mode=ResponseMode.SINGLE),
    )
    scanner = swarm.add_slave(
        address=address,
        seed=derive_seed(seed, "prop"),
        clock=BluetoothClock(offset=clock_offset),
        base_phase=base_phase,
        horizon_tick=80_000,
    )
    scanner.start()
    kernel.run_until(80_000)
    tick = master.discovery_tick(address)
    assert tick is not None  # alternating trains always reach the slave
    stats = scanner.stats
    assert stats.first_heard_tick is not None
    assert stats.first_heard_tick <= stats.first_response_tick == tick
    # The response is exactly one slot after the ID it answers, which
    # the master transmitted while in inquiry.
    assert schedule.is_listening(tick)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_single_slave_never_collides(seed):
    kernel = Kernel()
    schedule = continuous_inquiry()
    master = InquiryProcedure(kernel, schedule)
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=ScanConfig.continuous())
    scanner = swarm.add_slave(
        address=BDAddr(1),
        seed=derive_seed(seed, "solo"),
        clock=BluetoothClock(offset=seed * 7919 % CLKN_WRAP),
        base_phase=seed % 32,
        horizon_tick=40_000,
    )
    scanner.start()
    kernel.run_until(40_000)
    assert master.channel.stats.collision_events == 0
    assert master.channel.stats.delivered == scanner.stats.responses


# -- paging invariants ---------------------------------------------------------


@given(
    clock_offset=st.integers(0, CLKN_WRAP - 1),
    base_phase=st.integers(0, 31),
    error_periods=st.integers(0, 40),
)
@settings(max_examples=40, deadline=None)
def test_page_rendezvous_lands_in_scan_window(clock_offset, base_phase, error_periods):
    kernel = Kernel()
    target = BluetoothDevice(
        address=BDAddr(0x42),
        clock=BluetoothClock(offset=clock_offset),
        base_phase=base_phase,
    )
    pager = SlotLevelPager(kernel)
    outcomes = []
    pager.page(
        target,
        outcomes.append,
        estimate_error_ticks=error_periods * 4096,
        timeout_ticks=10 * 4096,
    )
    kernel.run_until(11 * 4096)
    outcome = outcomes[0]
    assert outcome.result.outcome is PageOutcome.CONNECTED
    rendezvous = outcome.rendezvous_tick
    # The heard ID must fall inside one of the slave's 11.25 ms page-scan
    # windows (anchored by its clock, every 1.28 s).
    anchor = target.clock.offset % 4096
    assert (rendezvous - anchor) % 4096 < 36
    assert outcome.result.finished_tick == rendezvous + PAGE_HANDSHAKE_TICKS
