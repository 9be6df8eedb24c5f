"""The BIPS workstation: one room's piconet master.

"The main task of every BIPS workstation is discovering and enrolling
those mobile users who enter its coverage area.  Once a handheld device
has been enrolled, its position is communicated to the central server
machine" (§2).

The workstation runs the §5 duty cycle (inquiry window + serving
window), folds each window's sightings through the
:class:`~repro.core.tracker.PresenceTracker`, and ships only the deltas
over the LAN.  Positions come from inquiry alone; the serving window's
application traffic is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.bluetooth.connection import DisconnectReason
from repro.bluetooth.device import BluetoothDevice
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.page import PageOutcome
from repro.bluetooth.paging import SlotLevelPager
from repro.bluetooth.piconet import Piconet, PiconetFullError
from repro.lan.messages import PresenceInvalidation, PresenceUpdate, WorkstationHello
from repro.lan.transport import LANTransport
from repro.sim.kernel import Kernel

from .scheduler import MasterSchedulingPolicy
from .tracker import PresenceTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import SpanTracer

#: Resolves a discovered BD_ADDR to the device to page (None = cannot
#: page it; the workstation then tracks by inquiry alone).
DeviceDirectory = Callable[[object], Optional[BluetoothDevice]]


@dataclass(frozen=True)
class WorkstationSnapshot:
    """Point-in-time operational telemetry of one workstation."""

    workstation_id: str
    room_id: str
    failed: bool
    present_count: int
    piconet_active: int
    windows_evaluated: int
    updates_sent: int
    refreshes_sent: int
    invalidations_received: int
    enrolled: int
    responses_received: int
    collisions: int


class Workstation:
    """One fixed master covering one room."""

    def __init__(
        self,
        kernel: Kernel,
        workstation_id: str,
        room_id: str,
        device: BluetoothDevice,
        policy: MasterSchedulingPolicy,
        lan: LANTransport,
        schedule_offset_ticks: int = 0,
        miss_threshold: int = 2,
        refresh_interval_cycles: int = 0,
        device_directory: Optional[DeviceDirectory] = None,
        reachable: Optional[Callable] = None,
        reliable: bool = False,
        spans: Optional["SpanTracer"] = None,
    ) -> None:
        """Args beyond the obvious:

        refresh_interval_cycles: every N cycles, re-send a presence for
            each device the tracker believes present even though nothing
            changed.  Pure delta reporting (§2) is soft-state-free: one
            lost presence message strands a device until its next room
            change.  A low-rate refresh bounds that damage.  0 (the
            default, the paper's design) disables it.
        device_directory: enables §2 *enrolment*: newly present devices
            are paged (slot-level §3.2 rendezvous) during the serving
            window and joined to the piconet, up to the seven-slave
            AM_ADDR limit.  None (default) tracks by inquiry alone.
        reliable: every message to the server goes through
            :meth:`LANTransport.send_reliable` — bounded retransmission
            with exponential backoff — instead of the paper's
            fire-and-forget delta push.  False (the default) keeps the
            original semantics; a simulation under a fault plan sets it.
        """
        if schedule_offset_ticks < 0:
            raise ValueError(f"negative schedule offset: {schedule_offset_ticks}")
        if refresh_interval_cycles < 0:
            raise ValueError(f"negative refresh interval: {refresh_interval_cycles}")
        self.kernel = kernel
        self.workstation_id = workstation_id
        self.room_id = room_id
        self.device = device
        self.policy = policy
        self.lan = lan
        self.schedule = policy.build_schedule(start_tick=schedule_offset_ticks)
        self._spans = spans
        self.inquiry = InquiryProcedure(
            kernel,
            self.schedule,
            name=workstation_id,
            reachable=reachable,
            spans=spans,
        )
        self.tracker = PresenceTracker(miss_threshold=miss_threshold)
        self.refresh_interval_cycles = refresh_interval_cycles
        self.device_directory = device_directory
        self.pager = SlotLevelPager(kernel, name=workstation_id)
        self.piconet = Piconet(master=device.address)
        self.updates_sent = 0
        self.absences_sent = 0
        self.refreshes_sent = 0
        self.windows_evaluated = 0
        self.invalidations_received = 0
        self.enrolled = 0
        self.enroll_rejected_full = 0
        self.reliable = reliable
        self.failed = False
        self.reregistrations = 0
        self._started = False
        self._scheduled_until = 0
        self._paging: set = set()
        # The workstation itself receives nothing in the base protocol,
        # but registering makes it addressable for extensions
        # (invalidations, and acks for reliable delivery).
        lan.register(workstation_id, self._on_message)

    @property
    def channel(self):
        """The response channel handheld scanners attach to."""
        return self.inquiry.channel

    def start(self, horizon_tick: int) -> None:
        """Announce to the server and schedule per-window evaluations.

        May be called again later with a larger horizon to extend the
        evaluation schedule (the simulation facade does this when
        ``run`` is invoked repeatedly).
        """
        if not self._started:
            self._started = True
            self._push(
                WorkstationHello(
                    sent_tick=self.kernel.now,
                    workstation_id=self.workstation_id,
                    room_id=self.room_id,
                )
            )
        begin = max(self._scheduled_until, self.kernel.now)
        for window in self.schedule.windows.iter_windows(begin, horizon_tick):
            if window.end > horizon_tick or window.end <= self._scheduled_until:
                continue
            self.kernel.schedule_at(
                window.end,
                lambda w=window: self._evaluate_window(w.start, w.end),
                label=f"eval:{self.workstation_id}",
            )
        self._scheduled_until = max(self._scheduled_until, horizon_tick)

    def set_failed(self, failed: bool) -> None:
        """Inject (or clear) a workstation crash.

        While failed, the workstation evaluates nothing and sends
        nothing — its radio and its process are down; users in the room
        go untracked until recovery.  The crash also takes its LAN
        endpoint off the wire (messages to it drop silently) and aborts
        its un-acked reliable sends.  Recovery starts from a clean
        tracker (the crashed process lost its state), so everyone still
        present is re-reported on the first window after recovery.
        """
        if failed == self.failed:
            return
        self.failed = failed
        if failed:
            for connection in list(self.piconet.members):
                self.piconet.detach(
                    connection.slave, self.kernel.now, DisconnectReason.LOCAL_CLOSE
                )
            self.lan.unregister(self.workstation_id)
            self.lan.abort_pending(self.workstation_id)
        else:
            self._recover()
        if self._spans is not None:
            # An instant on the fault's own kernel span, so a flight
            # recorder armed on this name dumps with it as last record.
            self._spans.instant(
                "core.workstation_failed" if failed else "core.workstation_recovered",
                "core",
                self.kernel.now,
                ws=self.workstation_id,
                room=self.room_id,
            )

    def _recover(self) -> None:
        """Restart after a crash: re-register, re-announce, start clean.

        The restarted process re-registers its LAN endpoint, tells the
        server it is back (a fresh ``WorkstationHello``), and rebuilds
        tracking state from nothing — the first window after recovery
        re-reports everyone still in the room, which is what heals the
        database's stale attributions.
        """
        self.tracker = PresenceTracker(miss_threshold=self.tracker.miss_threshold)
        self.inquiry.reset()
        self.lan.register(self.workstation_id, self._on_message)
        self.reregistrations += 1
        self._push(
            WorkstationHello(
                sent_tick=self.kernel.now,
                workstation_id=self.workstation_id,
                room_id=self.room_id,
            )
        )

    def _push(self, message: object) -> None:
        """The single chokepoint for workstation→server traffic.

        Routes through reliable delivery when the workstation is
        ``reliable``; recovery-path code must use this (never
        ``lan.send`` directly) so restarts cannot silently regress to
        fire-and-forget — ``TestRetryPolicyWiring`` pins the restart
        hello to ``send_reliable``.
        """
        if self.reliable:
            self.lan.send_reliable(self.workstation_id, "server", message)
        else:
            self.lan.send(self.workstation_id, "server", message)

    def _evaluate_window(self, window_start: int, window_end: int) -> None:
        if self.failed:
            return
        seen = {
            address
            for address, tick in self.inquiry.last_seen.items()
            if tick >= window_start
        }
        deltas = self.tracker.observe_cycle(seen, tick=window_end)
        self.windows_evaluated += 1
        spans = self._spans
        if spans is None:
            self._finish_window(seen, deltas)
            return
        # The duty-cycle window is the trace root: everything the window
        # causes — delta sends, LAN transits, DB applies — nests under it.
        span = spans.begin(
            "bt.window",
            "bluetooth",
            window_start,
            parent=None,
            ws=self.workstation_id,
            room=self.room_id,
            presences=len(deltas.new_presences),
            absences=len(deltas.new_absences),
        )
        prev = spans.push(span)
        try:
            self._finish_window(seen, deltas)
        finally:
            spans.pop(prev)
            spans.end(span, window_end)

    def _finish_window(self, seen, deltas) -> None:
        """The window's consequences (split out so a span can wrap them)."""
        for address in deltas.new_presences:
            self._send_update(address, present=True)
            self._maybe_enroll(address)
        for address in deltas.new_absences:
            self._send_update(address, present=False)
            # Forget the device so a later return counts as a fresh
            # discovery (first response after re-entering the room).
            self.inquiry.forget(address)
            self.piconet.detach(address, self.kernel.now, DisconnectReason.DEVICE_LEFT)
        if (
            self.refresh_interval_cycles
            and deltas.cycle_index % self.refresh_interval_cycles
            == self.refresh_interval_cycles - 1
        ):
            self._send_refresh(seen, deltas.new_presences)

    def _send_refresh(self, seen, already_sent) -> None:
        """Soft-state refresh: re-assert present devices.

        Only devices actually sighted in the window just evaluated are
        refreshed — re-asserting a device that has started missing
        windows could race a fresher attribution from the room it moved
        to and flap the database.
        """
        skip = set(already_sent)
        present = self.tracker.present_devices
        for address in sorted(seen & present):
            if address in skip:
                continue
            self.refreshes_sent += 1
            self._send_update(address, present=True)

    def _maybe_enroll(self, address) -> None:
        """§2 enrolment: page the newly present device during serving."""
        if self.device_directory is None or address in self._paging:
            return
        if self.piconet.connection_of(address) is not None:
            return
        target = self.device_directory(address)
        if target is None:
            return
        if self.piconet.is_full:
            self.enroll_rejected_full += 1
            return
        self._paging.add(address)
        self.pager.page(target, lambda outcome: self._on_page_done(address, outcome))

    def _on_page_done(self, address, outcome) -> None:
        self._paging.discard(address)
        if self.failed:
            return
        if outcome.result.outcome is not PageOutcome.CONNECTED:
            return
        if address not in self.tracker.present_devices or address in self.piconet:
            return  # departed (or raced) while we paged
        try:
            self.piconet.attach(address, self.kernel.now)
        except PiconetFullError:
            self.enroll_rejected_full += 1
            return
        self.enrolled += 1

    def _send_update(self, address, present: bool) -> None:
        self.updates_sent += 1
        if not present:
            self.absences_sent += 1
        self._push(
            PresenceUpdate(
                sent_tick=self.kernel.now,
                workstation_id=self.workstation_id,
                device=address,
                present=present,
                room_id=self.room_id,
            )
        )

    def _on_message(self, source: str, message: object) -> None:
        if isinstance(message, PresenceInvalidation):
            self._handle_invalidation(message)

    def _handle_invalidation(self, message: PresenceInvalidation) -> None:
        """The server re-attributed a device we believed present.

        Drop it from the tracker (without emitting an absence delta —
        the database has already moved on) so that, should the device
        come back, the next sighting produces a fresh presence delta.
        """
        self.invalidations_received += 1
        self.tracker.force_absent(message.device)
        self.inquiry.forget(message.device)
        self.piconet.detach(message.device, self.kernel.now, DisconnectReason.DEVICE_LEFT)

    @property
    def present_count(self) -> int:
        """Devices the tracker currently believes are in the room."""
        return len(self.tracker.present_devices)

    def snapshot(self) -> "WorkstationSnapshot":
        """The operational telemetry an admin console would poll."""
        return WorkstationSnapshot(
            workstation_id=self.workstation_id,
            room_id=self.room_id,
            failed=self.failed,
            present_count=self.present_count,
            piconet_active=self.piconet.active_count,
            windows_evaluated=self.windows_evaluated,
            updates_sent=self.updates_sent,
            refreshes_sent=self.refreshes_sent,
            invalidations_received=self.invalidations_received,
            enrolled=self.enrolled,
            responses_received=self.inquiry.responses_received,
            collisions=self.inquiry.channel.stats.collision_events,
        )

    def __repr__(self) -> str:
        return (
            f"Workstation(id={self.workstation_id!r}, room={self.room_id!r}, "
            f"present={self.present_count})"
        )
