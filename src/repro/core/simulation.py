"""The end-to-end BIPS simulation facade.

Wires every substrate together — floor plan, workstations on the §5
duty cycle, the LAN, the central server, walking users with scanning
handhelds — and reports tracking quality against ground truth.

Typical use::

    sim = BIPSSimulation(plan=academic_department())
    alice = sim.add_user("u-alice", "Alice")
    sim.login("u-alice")
    sim.walk("u-alice", start_room="lab-1", hops=5)
    sim.run(until_seconds=600)
    print(sim.server.locate("u-alice", "Alice"))
    print(sim.tracking_report().describe())
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.building.floorplan import FloorPlan
from repro.building.layouts import academic_department
from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import NUM_INQUIRY_FREQUENCIES
from repro.bluetooth.device import BluetoothDevice
from repro.bluetooth.swarm import InquiryScanSwarm, SwarmDrain, SwarmSlave
from repro.lan.messages import LocationQuery, PathQuery
from repro.lan.transport import LANTransport
from repro.mobility.walker import BuildingWalker, WalkTimeline
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.radio.interference import SharedBand
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed

from .config import BIPSConfig
from .registry import VisibilityPolicy
from .server import BIPSServer
from .workstation import Workstation, WorkstationSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.obs.tracing import SpanTracer

logger = logging.getLogger(__name__)

#: Detection latency is bounded by the operational cycle (~15.4 s) plus
#: the miss-threshold hysteresis; buckets cover a few cycles.
_DETECTION_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 120.0)
#: Tick-valued histogram buckets (1 tick = 312.5 µs): LAN transit, the
#: server's delta-push and query lags, and injected LAN delay.
_LAN_LATENCY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)
_SERVER_LAG_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_FAULT_DELAY_BUCKETS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Vendor block for workstation radios (distinct from handhelds).
_WORKSTATION_ADDR_BASE = 0x000B_0000_0000
#: Vendor block for user handhelds.
_HANDHELD_ADDR_BASE = 0x000A_0000_0000


@dataclass
class TrackedUser:
    """A simulated user: identity, device, movement, and LAN inbox."""

    userid: str
    username: str
    device: BluetoothDevice
    password: str
    timeline: Optional[WalkTimeline] = None
    inbox: list[Any] = field(default_factory=list)
    scanners: list[SwarmSlave] = field(default_factory=list)

    @property
    def endpoint(self) -> str:
        """This user's LAN endpoint name."""
        return f"user:{self.userid}"


@dataclass(frozen=True)
class UserTrackingReport:
    """Tracking quality for one user over the run."""

    userid: str
    accuracy: float  # fraction of time the DB room matched ground truth
    transitions: int
    detected_transitions: int
    mean_detection_latency_seconds: Optional[float]
    detection_latencies_seconds: tuple[float, ...] = ()

    @property
    def detection_rate(self) -> float:
        """Fraction of room changes the system noticed."""
        if self.transitions == 0:
            return 1.0
        return self.detected_transitions / self.transitions


@dataclass(frozen=True)
class TrackingReport:
    """Aggregate tracking quality over all walking users."""

    users: tuple[UserTrackingReport, ...]
    horizon_seconds: float

    @property
    def mean_accuracy(self) -> float:
        """Mean per-user accuracy."""
        if not self.users:
            return 1.0
        return sum(user.accuracy for user in self.users) / len(self.users)

    @property
    def mean_detection_latency_seconds(self) -> Optional[float]:
        """Mean detection latency over users that had any detections."""
        values = [
            user.mean_detection_latency_seconds
            for user in self.users
            if user.mean_detection_latency_seconds is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def all_detection_latencies_seconds(self) -> list[float]:
        """Every detection latency across all users (for distributions)."""
        values: list[float] = []
        for user in self.users:
            values.extend(user.detection_latencies_seconds)
        return values

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"tracking report over {self.horizon_seconds:.0f}s "
            f"({len(self.users)} walking users)"
        ]
        for user in self.users:
            latency = (
                f"{user.mean_detection_latency_seconds:.1f}s"
                if user.mean_detection_latency_seconds is not None
                else "n/a"
            )
            lines.append(
                f"  {user.userid}: accuracy={user.accuracy * 100:.1f}% "
                f"transitions={user.detected_transitions}/{user.transitions} "
                f"mean detection latency={latency}"
            )
        lines.append(f"  mean accuracy: {self.mean_accuracy * 100:.1f}%")
        return "\n".join(lines)


class BIPSSimulation:
    """A complete BIPS deployment in one object."""

    def __init__(
        self,
        plan: Optional[FloorPlan] = None,
        config: Optional[BIPSConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional["FaultPlan"] = None,
        spans: Optional["SpanTracer"] = None,
    ) -> None:
        self.plan = plan if plan is not None else academic_department()
        self.plan.validate()
        self.config = config if config is not None else BIPSConfig()
        # One registry spans the whole pipeline; callers may supply
        # their own (e.g. to aggregate several simulations).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans
        self.kernel = Kernel(spans=spans)
        self.rng = RandomStream(self.config.seed, "bips")
        # Fault plans draw from their own seed-derived streams, so a
        # chaos run perturbs delivery, never the simulation's draws.
        self.faults = faults if faults is not None and not faults.is_noop else None
        self._faults_scheduled = False
        lan_rng = self.rng.child("lan")
        self.lan = LANTransport(
            self.kernel,
            loss_probability=self.config.lan_loss_probability,
            rng=lan_rng,
            fault_injector=self.faults.lan_injector() if self.faults is not None else None,
            spans=spans,
        )
        staleness_ticks = (
            ticks_from_seconds(self.config.staleness_horizon_seconds)
            if self.config.staleness_horizon_seconds > 0
            else None
        )
        self.server = BIPSServer(
            self.kernel,
            self.lan,
            self.plan,
            staleness_horizon_ticks=staleness_ticks,
            spans=spans,
        )
        self.workstations: dict[str, Workstation] = {}
        self._devices_by_address: dict[BDAddr, BluetoothDevice] = {}
        self._build_workstations()
        self._users: dict[str, TrackedUser] = {}
        self._walker = BuildingWalker(
            self.plan,
            self.rng.child("walker"),
            dwell_low_seconds=self.config.dwell_low_seconds,
            dwell_high_seconds=self.config.dwell_high_seconds,
        )
        self._next_query_id = 1
        self._horizon_tick = 0
        self._tracking_latencies_observed = False
        # Counter and gauge totals already added to the registry, per
        # series, and the value counts already observed, per histogram.
        self._folded: dict[tuple, int] = {}
        self._folded_counts: dict[str, dict[int, int]] = {}
        # One inquiry-scan swarm per room's piconet, created lazily; all
        # of them drained from one kernel callback.
        self._swarms: dict[str, InquiryScanSwarm] = {}
        self._swarm_drain = SwarmDrain(self.kernel)

    def _build_workstations(self) -> None:
        room_ids = self.plan.room_ids()
        cycle = self.config.policy.operational_cycle_ticks
        ws_rng = self.rng.child("workstations")
        self.band: Optional[SharedBand] = (
            SharedBand(self.rng.child("band")) if self.config.model_interference else None
        )
        schedules = {}
        for index, room_id in enumerate(room_ids):
            # Staggered inquiry windows, so presence reports do not all
            # burst onto the LAN at the same instant.
            offset = (index * cycle) // len(room_ids)
            device = BluetoothDevice(
                address=BDAddr(_WORKSTATION_ADDR_BASE + index),
                clock=BluetoothClock(offset=ws_rng.randint(0, CLKN_WRAP - 1)),
                name=f"ws-{room_id}",
            )
            reachable = None
            if self.band is not None:
                # Register first with an activity predicate bound to the
                # schedule the workstation is about to build; the
                # schedule is deterministic in (policy, offset), so
                # build it here for the predicate.
                schedule = self.config.policy.build_schedule(start_tick=offset)
                schedules[room_id] = schedule
                self.band.register(room_id, schedule.is_listening)
                reachable = self.band.survival_predicate(room_id)
            self.workstations[room_id] = Workstation(
                kernel=self.kernel,
                workstation_id=f"ws:{room_id}",
                room_id=room_id,
                device=device,
                policy=self.config.policy,
                lan=self.lan,
                schedule_offset_ticks=offset,
                miss_threshold=self.config.miss_threshold,
                refresh_interval_cycles=self.config.refresh_interval_cycles,
                device_directory=(
                    self._devices_by_address.get if self.config.enroll_users else None
                ),
                reachable=reachable,
                reliable=self.faults is not None,
                spans=self.spans,
            )
        if self.band is not None:
            # Adjacent rooms' piconets are within interference range.
            for passage in self.plan.passages:
                self.band.connect(passage.room_a, passage.room_b)

    # -- users ---------------------------------------------------------------

    def add_user(
        self,
        userid: str,
        username: str,
        password: str = "secret",
        policy: VisibilityPolicy = VisibilityPolicy.EVERYONE,
        allowed_queriers: Optional[set[str]] = None,
    ) -> TrackedUser:
        """Register a user (the off-line procedure) and give them a device."""
        if userid in self._users:
            raise ValueError(f"user {userid!r} already exists in the simulation")
        self.server.registry.register(
            userid, username, password, policy=policy, allowed_queriers=allowed_queriers
        )
        device_rng = self.rng.child("device", userid)
        device = BluetoothDevice(
            address=BDAddr(_HANDHELD_ADDR_BASE + len(self._users)),
            clock=BluetoothClock(offset=device_rng.randint(0, CLKN_WRAP - 1)),
            base_phase=device_rng.randint(0, NUM_INQUIRY_FREQUENCIES - 1),
            name=username,
        )
        user = TrackedUser(userid=userid, username=username, device=device, password=password)
        self._users[userid] = user
        self._devices_by_address[device.address] = device
        self.lan.register(user.endpoint, lambda _source, message: user.inbox.append(message))
        return user

    def user(self, userid: str) -> TrackedUser:
        """Look up a simulated user."""
        return self._users[userid]

    def login(self, userid: str) -> None:
        """Bind the user's device (direct server call, §2's login)."""
        user = self._users[userid]
        self.server.registry.login(
            userid, user.password, user.device.address, self.kernel.now
        )

    def logout(self, userid: str) -> None:
        """End the user's session and stop tracking their device."""
        self.server.logout_user(userid)

    # -- movement ----------------------------------------------------------------

    def walk(
        self, userid: str, start_room: str, hops: int, start_at_seconds: float = 0.0
    ) -> WalkTimeline:
        """Send the user on a random walk; returns the ground truth."""
        user = self._users[userid]
        timeline = self._walker.random_timeline(
            start_room, hops, start_tick=ticks_from_seconds(start_at_seconds)
        )
        self._attach_timeline(user, timeline)
        return timeline

    def follow_route(
        self, userid: str, route: Sequence[str], start_at_seconds: float = 0.0
    ) -> WalkTimeline:
        """Send the user along an explicit room route."""
        user = self._users[userid]
        timeline = self._walker.timeline(
            route, start_tick=ticks_from_seconds(start_at_seconds)
        )
        self._attach_timeline(user, timeline)
        return timeline

    def _swarm_for(self, room_id: str) -> InquiryScanSwarm:
        """The room piconet's inquiry-scan swarm, created lazily."""
        swarm = self._swarms.get(room_id)
        if swarm is None:
            workstation = self.workstations[room_id]
            swarm = InquiryScanSwarm(
                self.kernel,
                workstation.schedule,
                workstation.channel,
                config=self.config.handheld_scan_config(),
                name=room_id,
                drain=self._swarm_drain,
            )
            self._swarms[room_id] = swarm
        return swarm

    def _make_scanner(
        self,
        room_id: str,
        device: BluetoothDevice,
        seed: int,
        horizon_tick: int,
    ) -> SwarmSlave:
        """One scanning presence in a room's piconet."""
        return self._swarm_for(room_id).add_slave(
            address=device.address,
            seed=seed,
            clock=device.clock,
            base_phase=device.base_phase,
            horizon_tick=horizon_tick,
        )

    def _attach_timeline(self, user: TrackedUser, timeline: WalkTimeline) -> None:
        if user.timeline is not None:
            raise ValueError(f"user {user.userid!r} already has a walk attached")
        user.timeline = timeline
        for visit_index, visit in enumerate(timeline.visits):
            scanner = self._make_scanner(
                visit.room_id,
                user.device,
                seed=derive_seed(self.rng.seed, "scan", user.userid, str(visit_index)),
                horizon_tick=visit.leave_tick if visit.leave_tick is not None else (1 << 62),
            )
            user.scanners.append(scanner)
            self.kernel.post_at(
                max(visit.enter_tick, self.kernel.now),
                scanner.start,
                label=f"enter:{user.userid}",
            )
            if visit.leave_tick is not None:
                self.kernel.post_at(
                    visit.leave_tick, scanner.stop, label=f"leave:{user.userid}"
                )
            self._maybe_attach_overlap(user, visit, visit_index)

    def _maybe_attach_overlap(self, user, visit, visit_index) -> None:
        """Coverage spill: the device also answers a neighbouring piconet
        for a fraction of this visit (see BIPSConfig.coverage_overlap_fraction)."""
        fraction = self.config.coverage_overlap_fraction
        if fraction <= 0.0:
            return
        neighbors = [room for room, _ in self.plan.neighbors(visit.room_id)]
        if not neighbors:
            return
        if visit.leave_tick is None:
            # Open-ended final visits have no known dwell to scale by.
            return
        overlap_rng = self.rng.child("overlap", user.userid, str(visit_index))
        duration = max(0, visit.leave_tick - visit.enter_tick)
        spill_ticks = int(duration * fraction)
        if spill_ticks <= 0:
            return
        neighbor_room = overlap_rng.choice(neighbors)
        start = visit.enter_tick + overlap_rng.randint(0, max(0, duration - spill_ticks))
        scanner = self._make_scanner(
            neighbor_room,
            user.device,
            seed=derive_seed(overlap_rng.seed, "scan"),
            horizon_tick=start + spill_ticks,
        )
        user.scanners.append(scanner)
        self.kernel.post_at(
            max(start, self.kernel.now), scanner.start, label=f"spill:{user.userid}"
        )
        self.kernel.post_at(
            max(start + spill_ticks, self.kernel.now),
            scanner.stop,
            label=f"spill-end:{user.userid}",
        )

    # -- queries over the LAN ---------------------------------------------------

    def query_location_via_lan(self, querier_userid: str, target_username: str) -> int:
        """Send a LocationQuery from the querier's endpoint; returns its id.

        The response lands in the querier's :attr:`TrackedUser.inbox`
        after the LAN round trip (run the simulation forward to see it).
        """
        user = self._users[querier_userid]
        query_id = self._next_query_id
        self._next_query_id += 1
        self.lan.send(
            user.endpoint,
            self.server.endpoint,
            LocationQuery(
                sent_tick=self.kernel.now,
                querier_userid=querier_userid,
                target_username=target_username,
                query_id=query_id,
            ),
        )
        return query_id

    def query_path_via_lan(self, querier_userid: str, target_username: str) -> int:
        """Send a PathQuery from the querier's endpoint; returns its id."""
        user = self._users[querier_userid]
        query_id = self._next_query_id
        self._next_query_id += 1
        self.lan.send(
            user.endpoint,
            self.server.endpoint,
            PathQuery(
                sent_tick=self.kernel.now,
                querier_userid=querier_userid,
                target_username=target_username,
                query_id=query_id,
            ),
        )
        return query_id

    # -- failure injection ---------------------------------------------------------

    def fail_workstation(self, room_id: str, at_seconds: Optional[float] = None) -> None:
        """Crash the workstation of ``room_id`` (now, or at a future time)."""
        workstation = self.workstations[room_id]
        logger.info("injecting failure into workstation %s", room_id)
        if at_seconds is None:
            workstation.set_failed(True)
            return
        self.kernel.schedule_at(
            max(self.kernel.now, ticks_from_seconds(at_seconds)),
            lambda: workstation.set_failed(True),
            label=f"fail:{room_id}",
        )

    def recover_workstation(self, room_id: str, at_seconds: Optional[float] = None) -> None:
        """Bring a crashed workstation back (now, or at a future time)."""
        workstation = self.workstations[room_id]
        if at_seconds is None:
            workstation.set_failed(False)
            return
        self.kernel.schedule_at(
            max(self.kernel.now, ticks_from_seconds(at_seconds)),
            lambda: workstation.set_failed(False),
            label=f"recover:{room_id}",
        )

    # -- execution ---------------------------------------------------------------

    def run(self, until_seconds: float) -> None:
        """Advance the simulation to ``until_seconds`` of simulated time."""
        horizon = ticks_from_seconds(until_seconds)
        logger.debug(
            "running %d workstations to t=%.1fs", len(self.workstations), until_seconds
        )
        for workstation in self.workstations.values():
            workstation.start(horizon)
        self._schedule_faults(horizon)
        self._horizon_tick = max(self._horizon_tick, horizon)
        self.kernel.run_until(horizon)

    def _schedule_faults(self, horizon_tick: int) -> None:
        """Expand the fault plan into scheduled crash/brownout events.

        Runs once, against the first ``run`` horizon: fault windows are
        part of the experiment's design, not of how many times the
        caller steps the clock.
        """
        if self.faults is None or self._faults_scheduled:
            return
        self._faults_scheduled = True
        for room_id in sorted(self.workstations):
            for start, end in self.faults.crash_windows(room_id, horizon_tick):
                self.fail_workstation(room_id, at_seconds=seconds_from_ticks(start))
                self.recover_workstation(room_id, at_seconds=seconds_from_ticks(end))
        for start, end in self.faults.brownout_windows(horizon_tick):
            self.kernel.schedule_at(
                max(self.kernel.now, start),
                lambda: self.server.set_brownout(True),
                label="fault:brownout",
            )
            self.kernel.schedule_at(
                max(self.kernel.now, end),
                lambda: self.server.set_brownout(False),
                label="fault:brownout-end",
            )

    def system_snapshot(self) -> list["WorkstationSnapshot"]:
        """Per-workstation operational telemetry (admin-console view)."""
        return [ws.snapshot() for ws in self.workstations.values()]

    # -- metrics -----------------------------------------------------------------

    def finalize_metrics(self) -> None:
        """Fold the run's state into the registry.

        The one place that touches instruments: the components take no
        registry and count in plain attributes, a distribution as a
        value → count dict.  Gauges of current state are recomputed on
        every call; ``faults.active`` is 1 once a fault plan is
        scheduled.  A counter, the in-flight gauge and a counted
        histogram gain this simulation's growth since its last fold, so
        repeated calls are idempotent and simulations sharing one
        registry add up.  Series a component always had
        (the kernel's, the LAN's, ...) are always emitted; the others
        only once their total is above zero, the query-latency
        histogram after a LAN query and the extra-delay histogram with
        a LAN fault injector.  The detection-latency histogram (derived
        from the whole-run tracking report) is filled once.
        """
        metrics, fold, fold_counts = self.metrics, self._fold, self._fold_counts
        fold(metrics.counter("sim.events_fired"), self.kernel.events_fired)
        metrics.gauge("sim.queue_depth").set(self.kernel.pending_events)
        if self._swarms:
            swarms = self._swarms.values()
            ids_heard, backoffs, responses = (
                sum(column) for column in zip(*(s.scan_totals() for s in swarms))
            )
            fold(metrics.counter("bt.scan.ids_heard"), ids_heard)
            fold(metrics.counter("bt.scan.backoffs"), backoffs)
            fold(metrics.counter("bt.scan.responses_sent"), responses)
            fold(metrics.counter("sim.batch.advances"), sum(s.advances for s in swarms))
            fold(metrics.counter("sim.batch.slave_steps"), sum(s.slave_steps for s in swarms))
        stations = self.workstations.values()
        inquiries = [ws.inquiry for ws in stations]
        received = sum(q.responses_received for q in inquiries)
        fold(metrics.counter("bt.inquiry.responses_received"), received)
        missed = sum(q.responses_missed for q in inquiries)
        fold(metrics.counter("bt.inquiry.responses_missed"), missed)
        blocked = sum(q.responses_blocked for q in inquiries)
        fold(metrics.counter("bt.inquiry.responses_blocked"), blocked)
        discovered = sum(q.discoveries for q in inquiries)
        fold(metrics.counter("bt.inquiry.devices_discovered"), discovered)
        windows = sum(ws.windows_evaluated for ws in stations)
        if windows:
            fold(metrics.counter("core.inquiry_windows_evaluated"), windows)
        absences = sum(ws.absences_sent for ws in stations)
        presences = sum(ws.updates_sent for ws in stations) - absences
        if presences:
            fold(metrics.counter("core.presence_updates_sent", kind="presence"), presences)
        if absences:
            fold(metrics.counter("core.presence_updates_sent", kind="absence"), absences)
        # Crashes and recoveries alternate, a crash first: every
        # recovery re-registers, and a workstation still down at the end
        # has crashed once more than it recovered.
        recoveries = sum(ws.reregistrations for ws in stations)
        failures = recoveries + sum(ws.failed for ws in stations)
        if failures:
            fold(metrics.counter("core.workstation_failures"), failures)
        if recoveries:
            fold(metrics.counter("core.workstation_recoveries"), recoveries)
            fold(metrics.counter("core.workstation_reregistrations"), recoveries)
        server = self.server
        fold(metrics.counter("core.presence_updates_received"), server.presence_updates_received)
        if server.brownouts:
            fold(metrics.counter("core.server_brownouts"), server.brownouts)
        for kind, served in server.queries_served.items():
            if served:
                fold(metrics.counter("core.queries_served", kind=kind), served)
        for kind, failed in server.queries_failed.items():
            if failed:
                fold(metrics.counter("core.queries_failed", kind=kind), failed)
        for outcome, logins in server.logins.items():
            if logins:
                fold(metrics.counter("core.logins", outcome=outcome), logins)
        if server.stale_answers:
            fold(metrics.counter("core.stale_answers"), server.stale_answers)
        fold_counts(
            metrics.histogram("core.delta_push_lag_ticks", buckets=_SERVER_LAG_BUCKETS),
            server.push_lags,
        )
        if server.query_latencies:
            fold_counts(
                metrics.histogram("core.query_latency_ticks", buckets=_SERVER_LAG_BUCKETS),
                server.query_latencies,
            )
        stats = self.lan.stats
        fold(metrics.counter("lan.messages_sent"), stats.sent)
        for type_name, sent in sorted(stats.by_type.items()):
            fold(metrics.counter("lan.messages_sent_by_type", type=type_name), sent)
        fold(metrics.counter("lan.messages_delivered"), stats.delivered)
        fold(metrics.counter("lan.messages_dropped"), stats.dropped)
        fold(metrics.counter("lan.reliable_messages"), stats.reliable_sent)
        fold(metrics.counter("lan.duplicates_dropped"), stats.duplicates_dropped)
        fold(metrics.counter("lan.retries"), stats.retries)
        fold(metrics.counter("lan.retries_exhausted"), stats.retries_exhausted)
        fold(metrics.counter("lan.acks_sent"), stats.acks_sent)
        fold(metrics.counter("lan.bytes_sent"), stats.bytes_sent)
        fold(metrics.gauge("lan.messages_in_flight"), stats.in_flight)
        fold_counts(
            metrics.histogram("lan.delivery_latency_ticks", buckets=_LAN_LATENCY_BUCKETS),
            stats.latencies,
        )
        if self._faults_scheduled:
            metrics.gauge("faults.active").set(1)
        injector = self.lan.faults
        if injector is not None:
            fold(metrics.counter("faults.lan_dropped"), injector.dropped)
            fold(metrics.counter("faults.lan_duplicated"), injector.duplicated)
            fold(metrics.counter("faults.lan_delayed"), injector.delayed)
            fold(metrics.counter("faults.lan_reordered"), injector.reordered)
            fold_counts(
                metrics.histogram("faults.lan_extra_delay_ticks", buckets=_FAULT_DELAY_BUCKETS),
                injector.extra_delays,
            )
        for room_id, workstation in self.workstations.items():
            metrics.gauge("core.piconet_occupancy", room=room_id).set(workstation.present_count)
        db = server.location_db
        metrics.gauge("db.known_devices").set(db.known_count)
        metrics.gauge("db.tracked_devices").set(db.tracked_count)
        metrics.gauge("db.stale_devices").set(len(db.stale_devices(self.kernel.now)))
        metrics.gauge("db.presences_superseded").set(db.presences_superseded)
        simulated = self.kernel.now_seconds
        metrics.gauge("sim.simulated_seconds").set(simulated)
        # "Ticks per second" without a wall clock: event throughput per
        # simulated second, the deterministic proxy future perf PRs diff.
        metrics.gauge("sim.events_per_simulated_second").set(
            self.kernel.events_fired / simulated if simulated > 0 else 0.0
        )
        if not self._tracking_latencies_observed:
            self._tracking_latencies_observed = True
            histogram = metrics.histogram(
                "core.detection_latency_seconds", buckets=_DETECTION_LATENCY_BUCKETS
            )
            for latency in self.tracking_report().all_detection_latencies_seconds:
                histogram.observe(latency)

    def _fold(self, instrument: Counter | Gauge, total: int) -> None:
        """Add ``total``'s growth since this simulation last folded it."""
        key = (instrument.name, *sorted(instrument.labels.items()))
        instrument.inc(total - self._folded.get(key, 0))
        self._folded[key] = total

    def _fold_counts(self, histogram: Histogram, counts: dict[int, int]) -> None:
        """Observe each value's count growth since this simulation last
        folded ``counts`` into ``histogram``."""
        folded = self._folded_counts.setdefault(histogram.name, {})
        for value in sorted(counts):
            total = counts[value]
            grown = total - folded.get(value, 0)
            if grown:
                histogram.observe_many(value, grown)
                folded[value] = total

    # -- evaluation -----------------------------------------------------------------

    def tracking_report(self) -> TrackingReport:
        """Compare the location database against ground truth."""
        reports = []
        for user in self._users.values():
            if user.timeline is None:
                continue
            reports.append(self._report_for(user))
        return TrackingReport(
            users=tuple(reports),
            horizon_seconds=seconds_from_ticks(self._horizon_tick),
        )

    def _report_for(self, user: TrackedUser) -> UserTrackingReport:
        assert user.timeline is not None
        horizon = self._horizon_tick
        truth = _timeline_segments(user.timeline, horizon)
        events = self.server.location_db.history_of(user.device.address)
        db_segments = _db_segments(events, horizon)
        matched = _overlap_ticks(truth, db_segments)
        walk_start = truth[0][0] if truth else 0
        walk_span = max(1, horizon - walk_start)
        accuracy = matched / walk_span

        latencies = []
        transitions = 0
        detected = 0
        for visit in user.timeline.visits:
            enter = visit.enter_tick
            leave = visit.leave_tick if visit.leave_tick is not None else horizon
            if enter >= horizon:
                continue
            transitions += 1
            first_seen = None
            for event in events:
                if event.room_id == visit.room_id and enter <= event.tick:
                    first_seen = event.tick
                    break
            if first_seen is not None and first_seen < leave:
                detected += 1
                latencies.append(seconds_from_ticks(first_seen - enter))
        mean_latency = sum(latencies) / len(latencies) if latencies else None
        return UserTrackingReport(
            userid=user.userid,
            accuracy=accuracy,
            transitions=transitions,
            detected_transitions=detected,
            mean_detection_latency_seconds=mean_latency,
            detection_latencies_seconds=tuple(latencies),
        )


def _timeline_segments(timeline: WalkTimeline, horizon: int) -> list[tuple[int, int, str]]:
    """Ground truth as ``(start, end, room)`` segments clipped to horizon."""
    segments = []
    for visit in timeline.visits:
        start = visit.enter_tick
        end = visit.leave_tick if visit.leave_tick is not None else horizon
        start, end = min(start, horizon), min(end, horizon)
        if start < end:
            segments.append((start, end, visit.room_id))
    return segments


def _db_segments(events, horizon: int) -> list[tuple[int, int, str]]:
    """Location-database belief as ``(start, end, room)`` segments."""
    segments = []
    for index, event in enumerate(events):
        if event.room_id is None:
            continue
        start = event.tick
        end = events[index + 1].tick if index + 1 < len(events) else horizon
        start, end = min(start, horizon), min(end, horizon)
        if start < end:
            segments.append((start, end, event.room_id))
    return segments


def _overlap_ticks(
    truth: list[tuple[int, int, str]], belief: list[tuple[int, int, str]]
) -> int:
    """Total ticks where the belief room equals the truth room."""
    total = 0
    for t_start, t_end, t_room in truth:
        for b_start, b_end, b_room in belief:
            if b_room != t_room:
                continue
            lo = max(t_start, b_start)
            hi = min(t_end, b_end)
            if lo < hi:
                total += hi - lo
    return total
