"""The swarm timeline keeps the exact ``(tick, seq)`` order of one heap.

An :class:`InquiryScanSwarm` keeps its due buckets and FHS deliveries
in a private timeline, and a :class:`SwarmDrain` drains every swarm
timeline of one kernel inside one kernel event.  Each entry holds the
``seq`` the kernel reserved for it at filing time, so these tests check
the order a shared heap would give against foreign kernel events, the
``run_until`` bound, ``step()``, a ``stop_row`` issued mid-drain and
the entries of other swarms on the same drain.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import BACKOFF_MAX_SLOTS
from repro.bluetooth.constants import INQUIRY_RESPONSE_DELAY_TICKS as DELAY
from repro.bluetooth.hopping import TrainStrategy, continuous_inquiry, periodic_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import PhaseMode, ScanConfig
from repro.bluetooth.swarm import _GROUP_KEY_SCALE as GROUP_KEY_SCALE
from repro.bluetooth.swarm import InquiryScanSwarm, SwarmDrain, SwarmSlave
from repro.building.layouts import academic_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed

HORIZON = 64_000


def _piconet(slaves=8, seed=99, start=True):
    """A Figure-2-style piconet: CONTINUOUS responders, train-locked."""
    kernel = Kernel()
    schedule = periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY)
    master = InquiryProcedure(kernel, schedule, name="master")
    config = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config, name="t")
    root = RandomStream(seed, "timeline")
    handles = []
    for index in range(slaves):
        rng = root.child("slave", str(index))
        handle = swarm.add_slave(
            BDAddr(0x2000 + index),
            seed=derive_seed(rng.seed, "draws"),
            clock=BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1)),
            base_phase=rng.randint(0, 15),
            horizon_tick=HORIZON,
        )
        if start:
            handle.start()
        handles.append(handle)
    return kernel, swarm, master, handles


def _observables(swarm, master, handles):
    stats = master.channel.stats
    return (
        [
            (h.state.value, h.stats.ids_heard, h.stats.backoffs, tuple(h.stats.response_ticks))
            for h in handles
        ],
        (stats.transmissions, stats.delivered, stats.collided),
        tuple((c.tick, c.rf_channel, c.senders) for c in stats.collisions),
        (master.responses_received, master.responses_missed, master.responses_blocked),
        tuple((str(r.address), r.discovered_tick) for r in master.results),
    )


def _digest(observables) -> str:
    return hashlib.sha256(repr(observables).encode("utf-8")).hexdigest()


def _open_responses(swarm):
    """Responses filed into FHS groups the swarm has not settled yet."""
    return sum(len(rows) for rows in swarm._groups.values())


def _open_group_ticks(swarm):
    """The ticks of the swarm's unsettled FHS groups."""
    return [key // GROUP_KEY_SCALE for key in swarm._groups]


def _lone_responder():
    """One CONTINUOUS slave under continuous inquiry: its first two hears
    ``(h1, h2)``, from a reference run.

    The "after the filing" cases post from a callback at ``h1 + 1`` and
    split the drain at ``h2 - 1``: both must fall strictly between the
    first response's delivery and the second hear.
    """
    kernel, swarm, master, handle = _lone_setup()
    handle.start()
    kernel.run_until(20_000)
    first, second = handle.stats.response_ticks[:2]
    h1, h2 = first - DELAY, second - DELAY
    assert h1 + 1 < h1 + DELAY < h2 - 1
    return h1, h2


def _lone_setup():
    kernel = Kernel()
    schedule = continuous_inquiry()
    master = InquiryProcedure(kernel, schedule, name="m")
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=ScanConfig.continuous(), name="lone"
    )
    handle = swarm.add_slave(
        BDAddr(0xAB),
        seed=derive_seed(3, "lone"),
        clock=BluetoothClock(offset=5_000),
        horizon_tick=20_000,
    )
    return kernel, swarm, master, handle


class TestForeignEventsAtSwarmTicks:
    """A foreign event at an entry's tick fires before the entry when it
    was posted before the entry was filed, and after it otherwise."""

    @pytest.mark.parametrize("posted", ["before", "after"])
    def test_hear_bucket(self, posted):
        h1, h2 = _lone_responder()
        kernel, swarm, master, handle = _lone_setup()
        seen = []

        def foreign():
            seen.append(handle.stats.responses)

        if posted == "before":
            # Posted before the row even starts: its seq precedes the
            # bucket that the hear at h1 files for h2.
            kernel.post_at(h2, foreign)
        else:
            # Posted after the h1 bucket filed h2.  The no-op at h2 - 1
            # makes the swarm yield with the h2 bucket next, so its wake
            # is posted after the foreign event and must still fire first.
            def after_filing():
                kernel.post_at(h2, foreign)
                kernel.post_at(h2 - 1, lambda: None)

            kernel.post_at(h1 + 1, after_filing)
        handle.start()
        kernel.run_until(h2 + 10)
        # Before: only the h1 response exists; after: h2 was answered.
        assert seen == ([1] if posted == "before" else [2])

    @pytest.mark.parametrize("posted", ["before", "after"])
    def test_delivery(self, posted):
        h1, _ = _lone_responder()
        delivery = h1 + DELAY
        kernel, swarm, master, handle = _lone_setup()
        seen = []

        def foreign():
            seen.append((master.responses_received, _open_responses(swarm)))

        if posted == "before":
            kernel.post_at(delivery, foreign)
        else:
            # Filed while the h1 bucket was processed, so h1 + 1 is after.
            kernel.post_at(h1 + 1, lambda: kernel.post_at(delivery, foreign))
        handle.start()
        kernel.run_until(delivery + 10)
        assert seen == ([(0, 1)] if posted == "before" else [(1, 0)])

    def test_markers_see_exactly_the_earlier_ticks(self):
        # Markers posted before any row starts precede every swarm entry
        # at their tick, so each sees the responses heard, the devices
        # discovered and the collisions resolved strictly before it.
        kernel, swarm, master, handles = _piconet()
        kernel.run_until(HORIZON)
        reference = _observables(swarm, master, handles)
        hears = sorted(
            tx - DELAY for _, _, _, ticks in reference[0] for tx in ticks
        )
        discoveries = sorted(tick for _, tick in reference[4])
        collisions = sorted(tick for tick, _, _ in reference[2])
        kernel, swarm, master, handles = _piconet(start=False)
        seen = []

        def marker():
            seen.append(
                (
                    kernel.now,
                    sum(len(h.stats.response_ticks) for h in handles),
                    master.discovered_count,
                    master.channel.stats.collision_events,
                )
            )

        for tick in range(0, 20_000, 7):
            kernel.post_at(tick, marker)
        for handle in handles:
            handle.start()
        kernel.run_until(HORIZON)
        assert seen == [
            (
                tick,
                sum(1 for hear in hears if hear < tick),
                sum(1 for found in discoveries if found < tick),
                sum(1 for clash in collisions if clash < tick),
            )
            for tick in range(0, 20_000, 7)
        ]
        assert _observables(swarm, master, handles) == reference


class TestDrainBound:
    @pytest.mark.parametrize("stop", [1, 4_001, 9_999, 16_002, 33_333])
    def test_run_until_never_passes_its_target(self, stop):
        kernel, swarm, master, handles = _piconet()
        kernel.run_until(HORIZON)
        full = _observables(swarm, master, handles)
        kernel, swarm, master, handles = _piconet()
        latest = []
        master.on_discovered = lambda packet, tick: latest.append(kernel.now)
        kernel.run_until(stop)
        assert kernel.now == stop
        assert all(now <= stop for now in latest)
        for handle, (_, _, _, ticks) in zip(handles, full[0]):
            # Exactly the responses heard by ``stop``: none beyond it.
            assert tuple(handle.stats.response_ticks) == tuple(
                tx for tx in ticks if tx - DELAY <= stop
            )
        assert all(
            record.discovered_tick <= stop for record in master.results
        )
        kernel.run_until(HORIZON)
        assert _observables(swarm, master, handles) == full

    def test_resumed_run_matches_uninterrupted(self):
        kernel, swarm, master, handles = _piconet()
        kernel.run_until(HORIZON)
        full = _digest(_observables(swarm, master, handles))
        kernel, swarm, master, handles = _piconet()
        for target in range(0, HORIZON + 1, 997):
            kernel.run_until(target)
        kernel.run_until(HORIZON)
        assert _digest(_observables(swarm, master, handles)) == full

    def test_step_processes_only_the_fired_tick(self):
        kernel, swarm, master, handles = _piconet()
        kernel.run_until(HORIZON)
        full = _digest(_observables(swarm, master, handles))
        kernel, swarm, master, handles = _piconet()
        steps = 0
        open_groups = 0
        while kernel.queue and kernel.queue[0][0] <= HORIZON:
            fired = kernel.queue[0][0]
            before = [len(h.stats.response_ticks) for h in handles]
            assert kernel.step()
            steps += 1
            assert kernel.now == fired
            # Every response this step produced was heard at ``fired``...
            for handle, count in zip(handles, before):
                for tx in handle.stats.response_ticks[count:]:
                    assert tx - DELAY == fired
            # ...and every FHS group due by ``fired`` has been resolved.
            ticks = _open_group_ticks(swarm)
            assert all(tick > fired for tick in ticks)
            open_groups += len(ticks)
        kernel.run_until(HORIZON)
        assert steps > 1
        assert open_groups > 0
        assert _digest(_observables(swarm, master, handles)) == full


#: A row stream whose first backoff draw is 0 slots: that backoff
#: refiles the row for the very tick it is processed at.
ZERO_BACKOFF_SEED = 3270


def _lockstep_swarm(kernel, seeds):
    """CONTINUOUS rows with identical clocks and phases, one per seed:
    every row hears the same IDs."""
    schedule = continuous_inquiry()
    master = InquiryProcedure(kernel, schedule, name="m")
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=ScanConfig.continuous(), name="zero"
    )
    handles = [
        swarm.add_slave(
            BDAddr(0x300 + index),
            seed=derive_seed(seed, "zero"),
            clock=BluetoothClock(offset=5_000),
            horizon_tick=20_000,
        )
        for index, seed in enumerate(seeds)
    ]
    return swarm, master, handles


class TestDueBuckets:
    START = 100

    def test_rows_due_at_one_tick_act_in_filing_order(self):
        # Every row's seek files it for the same hear tick, so that
        # bucket lists the rows in the order the start bucket ran them.
        kernel = Kernel()
        swarm, _, handles = _lockstep_swarm(kernel, range(3))
        order = [handles[2], handles[0], handles[1]]
        for handle in order:
            handle.start(at_tick=self.START)
        kernel.run_until(self.START)
        assert list(swarm._due.values()) == [[handle.row for handle in order]]

    def test_same_tick_refile_opens_a_later_bucket(self):
        # A 0-slot backoff refiles the row for the tick being processed.
        # The refile takes a fresh seq, so a foreign event posted for that
        # tick after the hear was filed fires between the hear and the
        # end of the backoff; the response still goes out that tick.
        assert RandomStream(ZERO_BACKOFF_SEED, "zero").randint(0, BACKOFF_MAX_SLOTS) == 0
        kernel = Kernel()
        _, _, (reference,) = _lockstep_swarm(kernel, [ZERO_BACKOFF_SEED])
        reference.start(at_tick=self.START)
        kernel.run_until(5_000)
        heard = reference.stats.first_heard_tick
        assert heard > self.START

        kernel = Kernel()
        _, _, (handle,) = _lockstep_swarm(kernel, [ZERO_BACKOFF_SEED])
        handle.start(at_tick=self.START)
        kernel.run_until(heard - 1)
        seen = []
        kernel.post_at(
            heard,
            lambda: seen.append(
                (handle.state.value, handle.stats.ids_heard, handle.stats.responses)
            ),
        )
        kernel.run_until(5_000)
        assert seen == [("backoff", 1, 0)]
        assert handle.stats.response_ticks[0] == heard + DELAY


def _piconet_on(kernel, drain, seed):
    """A started :func:`_piconet`-style swarm and its master on
    ``kernel``, drained by ``drain``; ``seed`` also places the master's
    inquiry windows."""
    schedule = periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY, start=seed)
    master = InquiryProcedure(kernel, schedule, name=f"master-{seed}")
    config = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=config, name=str(seed), drain=drain
    )
    root = RandomStream(seed, "timeline")
    for index in range(8):
        rng = root.child("slave", str(index))
        swarm.add_slave(
            BDAddr(0x2000 + 0x100 * seed + index),
            seed=derive_seed(rng.seed, "draws"),
            clock=BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1)),
            base_phase=rng.randint(0, 15),
            horizon_tick=HORIZON,
        ).start()
    return swarm, master


def _is_wake_of(payload, drain):
    return getattr(payload, "__self__", None) is drain


#: The tick the shared-drain ordering test files both buckets for.
START = 100


def _lone_on(kernel, drain, name):
    """One idle CONTINUOUS row in its own piconet on ``kernel``."""
    schedule = continuous_inquiry()
    master = InquiryProcedure(kernel, schedule, name=f"m-{name}")
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=ScanConfig.continuous(), name=name, drain=drain
    )
    swarm.add_slave(
        BDAddr(0xAB), seed=derive_seed(3, name), clock=BluetoothClock(offset=5_000)
    )
    return swarm


def _recording(swarm, announced):
    """``swarm``'s channel announce, appending ``(now, swarm, rows)`` of
    each bucket's responders to ``announced``."""
    announce = swarm._announce

    def record(tx_tick, rows):
        announced.append((swarm.kernel.now, swarm.name, tuple(rows)))
        return announce(tx_tick, rows)

    return record


def _handles(swarm):
    return [SwarmSlave(swarm, row) for row in range(len(swarm._offset))]


class TestSharedDrain:
    """Every swarm of a kernel drained from one kernel callback keeps the
    ``(tick, seq)`` order of one shared heap."""

    def test_same_tick_entries_of_two_swarms_interleave_by_seq(self):
        # Two swarms open a bucket at one tick, and foreign events are
        # posted before, between and after their filings: each fires
        # after exactly the buckets filed before it.
        kernel = Kernel()
        drain = SwarmDrain(kernel)
        first, second = (_lone_on(kernel, drain, name) for name in ("a", "b"))
        seen = []

        def foreign():
            seen.append((START in first._due, START in second._due))

        kernel.post_at(START, foreign)
        first.start_row(0, at_tick=START)
        kernel.post_at(START, foreign)
        second.start_row(0, at_tick=START)
        kernel.post_at(START, foreign)
        kernel.run_until(START)
        assert seen == [(True, True), (False, True), (False, False)]

    @pytest.mark.parametrize("stop", [9_999, HORIZON])
    def test_shared_drain_matches_a_drain_per_swarm(self, stop):
        # Sharing the drain changes how many kernel events the swarms
        # cost, nothing they do, nor the order in which the piconets'
        # responses go out.
        outcomes = []
        events = []
        for shared in (False, True):
            kernel = Kernel()
            drain = SwarmDrain(kernel) if shared else None
            piconets = [_piconet_on(kernel, drain, seed) for seed in (99, 7, 1234)]
            announced = []
            for swarm, _ in piconets:
                swarm._announce = _recording(swarm, announced)
            for target in range(0, stop + 1, 997):
                kernel.run_until(target)
            kernel.run_until(stop)
            outcomes.append(
                (
                    [_observables(swarm, master, _handles(swarm)) for swarm, master in piconets],
                    announced,
                )
            )
            events.append(kernel.events_fired)
            assert announced == sorted(announced, key=lambda record: record[0])
            assert len({name for _, name, _ in announced}) == 3
        assert outcomes[0] == outcomes[1]
        assert events[1] < events[0]

    def test_row_started_from_another_swarms_delivery(self):
        # A discovery in one piconet starts a row in another while the
        # drain runs the first: the new bucket still fires in its place.
        outcomes = []
        for shared in (False, True):
            kernel = Kernel()
            drain = SwarmDrain(kernel) if shared else None
            swarm, master = _piconet_on(kernel, drain, 99)
            other = _lone_on(kernel, drain, "b")
            announced = []
            for each in (swarm, other):
                each._announce = _recording(each, announced)
            started = []

            def on_discovered(packet, tick):
                if not started:
                    started.append(tick)
                    other.start_row(0)

            master.on_discovered = on_discovered
            kernel.run_until(HORIZON)
            assert started and any(name == "b" for _, name, _ in announced)
            assert announced == sorted(announced, key=lambda record: record[0])
            outcomes.append((announced, other.stats_of(0)))
        assert outcomes[0] == outcomes[1]

    def test_a_drain_serves_one_kernel(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            _lone_on(Kernel(), SwarmDrain(kernel), "other")


#: ``kernel.events_fired`` of :meth:`TestOneWakePerKernel._department`
#: when every swarm posted its own wakes.
EVENTS_WITH_A_WAKE_PER_SWARM = 12_698


class TestOneWakePerKernel:
    def test_twelve_piconets_cost_a_fifth_of_the_kernel_events(self):
        # Twelve rooms whose inquiry windows overlap: handing over between
        # swarms inside one drain replaces most of their kernel wakes.
        sim = self._department()
        assert len(sim._swarms) == 12
        assert sim.kernel.events_fired * 5 <= EVENTS_WITH_A_WAKE_PER_SWARM

    @staticmethod
    def _department():
        """96 users on two-hop walks from the 12 rooms, 5 simulated minutes."""
        sim = BIPSSimulation(plan=academic_department(), config=BIPSConfig())
        rooms = sim.plan.room_ids()
        for index in range(96):
            userid = f"u{index}"
            sim.add_user(userid, f"User{index}")
            sim.login(userid)
            sim.walk(userid, rooms[index % len(rooms)], 2)
        sim.run(until_seconds=300.0)
        return sim


class TestStopMidDrain:
    def test_stop_from_on_discovered_freezes_the_row(self):
        kernel, swarm, master, handles = _piconet(start=False)
        by_address = {BDAddr(0x2000 + h.row): h for h in handles}
        frozen = {}

        def on_discovered(packet, tick):
            handle = by_address[packet.sender]
            assert swarm._draining  # delivered from inside the drain
            handle.stop()
            frozen[handle.row] = (tick, handle.stats)

        master.on_discovered = on_discovered
        for handle in handles:
            handle.start()
        kernel.run_until(HORIZON)
        assert len(frozen) >= 2
        for row, (tick, stats) in frozen.items():
            handle = handles[row]
            assert handle.state.value == "stopped"
            # Nothing the row does is processed after its stop...
            assert handle.stats == stats
            # ...so its last hear came before the delivery that stopped it.
            assert stats.response_ticks[-1] - DELAY < tick


class TestTimelineBookkeeping:
    def test_wakes_match_live_entries(self):
        # The drain's wakes in the kernel heap are exactly the ones it
        # records, each under the seq of a live head, the earliest head
        # among them; none is left once every swarm has drained.
        kernel = Kernel()
        drain = SwarmDrain(kernel)
        swarms = [_piconet_on(kernel, drain, seed)[0] for seed in (99, 7)]
        for target in range(0, HORIZON + 4_001, 4_000):
            kernel.run_until(target)
            wakes = sorted(seq for _, seq, payload in kernel.queue if _is_wake_of(payload, drain))
            assert sorted(drain._posted) == wakes
            heads = {seq: swarm for _, seq, swarm in drain._heads}
            # One head per swarm with pending work: its earliest entry.
            assert len(heads) == sum(1 for swarm in swarms if swarm._timeline)
            for seq, swarm in heads.items():
                assert swarm._timeline[0][1] == seq
            assert set(wakes) <= set(heads)
            if heads:
                assert drain._heads[0][1] in wakes
        assert not drain._heads and not drain._posted
        assert not any(swarm._timeline for swarm in swarms)

    def test_finished_swarm_is_freed_without_the_cyclic_gc(self):
        # The swarm must not sit in a reference cycle of its own making
        # (say, through cached bound methods), or every finished trial
        # would hold its columns and rows until the next GC pass.
        gc.disable()
        try:
            kernel, swarm, master, handles = _piconet(slaves=3)
            kernel.run_until(HORIZON + 10)
            assert not kernel.queue
            ref = weakref.ref(swarm)
            del swarm, handles, master, kernel
            assert ref() is None
        finally:
            gc.enable()
