"""The discrete-event simulation kernel.

A minimal but complete event-queue kernel: callbacks are scheduled at
integer tick times, fire in (time, insertion-order) order, and may
schedule further callbacks.

Fast-path design (see docs/performance.md):

* The queue is one binary heap of plain ``(time, seq, payload)``
  tuples, so ordering is resolved by C-level tuple comparison —
  ``seq`` is unique, so the payload is never compared.  The payload is
  the bare callback on the fast path; an :class:`EventHandle` is
  allocated only when the caller needs cancellation
  (``schedule_at``/``schedule``) or a traced label.
* Cancellation is a tombstone: the entry stays queued and is skipped
  when it surfaces.  A live ``pending`` counter keeps
  :attr:`Kernel.pending_events` O(1), and the queue is compacted when
  tombstones outnumber live entries.
* Metrics are batched: ``sim.events_fired`` / ``sim.queue_depth`` are
  flushed every :data:`METRICS_FLUSH_INTERVAL` events and at every
  ``run_until``/``step`` boundary, so the per-event cost is two branch
  checks instead of two instrument updates.
* ``run_until`` peeks at the queue head and never pops an event beyond
  the target tick, so crossing a boundary does not pay a pop + re-push.
* A kernel with a :class:`~repro.obs.tracing.SpanTracer` attached
  drains through a separate loop that wraps labelled events in spans
  (the kernel's only record of what fired), so the untraced hot loop
  carries no span checks.
* A component may keep a private timeline of its own pending work and
  drain it inside one kernel event, provided it keeps exact
  ``(tick, seq)`` order with the heap: :meth:`Kernel.reserve_seq` hands
  out a tie-break ``seq`` without posting, :meth:`Kernel.post_reserved`
  posts a wake under such a seq, :attr:`Kernel.queue` is the live heap
  whose head is the lookahead horizon, and :attr:`Kernel.drain_bound`
  is the last tick the current drain may reach.
"""

from __future__ import annotations

import heapq
import logging
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from .clock import SimClock, seconds_from_ticks
from .errors import DeadlockError, SchedulingError
from .hotpath import hot_path

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layering cycle
    from repro.obs.metrics import Counter, Gauge, MetricsRegistry
    from repro.obs.tracing import SpanTracer

logger = logging.getLogger(__name__)

Callback = Callable[[], Any]

#: Unused by the kernel; kept because ``bipsbench/worker.py`` imports it.
SCHEDULER_ENV_VAR = "BIPS_SIM_SCHEDULER"

#: Events between metric flushes; also flushed at run/step boundaries.
METRICS_FLUSH_INTERVAL = 4096

_FLUSH_MASK = METRICS_FLUSH_INTERVAL - 1

#: Tombstone count below which compaction is never attempted.
_COMPACT_MIN_TOMBSTONES = 64

#: :attr:`Kernel.drain_bound` of an unbounded drain
#: (``run_to_completion``); beyond any reachable tick.
UNBOUNDED = 1 << 63


class EventHandle:
    """A cancellable handle to a scheduled event.

    Cancellation is lazy: the queue entry stays put but is skipped when
    it reaches the front, which keeps cancellation O(1).  The owning
    kernel keeps exact live/tombstone counters, so cancellation also
    notifies it.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_kernel")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callback,
        label: str,
        kernel: Optional["Kernel"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.label = label
        self.cancelled = False
        self._kernel = kernel

    def cancel(self) -> None:
        """Cancel the event; a cancelled event never fires."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.callback is None:
            return  # already fired; nothing queued to tombstone
        self.callback = None  # drop references promptly
        if self._kernel is not None:
            self._kernel._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled or fired."""
        return not self.cancelled and self.callback is not None

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, label={self.label!r}, {state})"


#: A queue entry.  The payload is the bare callback on the fast path
#: and an :class:`EventHandle` for cancellable/labelled events; ``seq``
#: is unique so tuple comparison never reaches the payload.
Entry = tuple[int, int, Union[Callback, EventHandle]]


class Kernel:
    """Discrete-event simulator core.

    Typical use::

        kernel = Kernel()
        kernel.schedule(100, machine.on_timer)
        kernel.run_until(1000)

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` to export kernel
    health (events processed, queue depth) alongside the rest of the
    pipeline's telemetry.
    """

    def __init__(
        self,
        metrics: Optional["MetricsRegistry"] = None,
        spans: Optional["SpanTracer"] = None,
    ) -> None:
        self.clock = SimClock()
        # Span tracing rides the labelled-event path: attaching a
        # SpanTracer turns label retention on, so every labelled event
        # can become a kernel span.
        self._spans = spans
        self._trace_enabled = spans is not None
        self._seq = 0
        self._events_fired = 0
        self._pending = 0
        self._tombstones = 0
        self._heap: list[Entry] = []
        self._bound = UNBOUNDED
        self._m_events: Optional["Counter"] = (
            metrics.counter("sim.events_fired") if metrics else None
        )
        self._m_queue: Optional["Gauge"] = (
            metrics.gauge("sim.queue_depth") if metrics else None
        )
        self._m_reported = 0

    # -- scheduling ------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self.clock._now

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now_seconds

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far.

        Exact at ``run_until``/``step`` boundaries and at every metrics
        flush; inside a running batch it may lag by up to the batch
        remainder (the hot loop keeps its counter in a local).
        """
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        Maintained as a live counter: O(1), exact across arbitrary
        schedule/cancel/fire churn whenever the kernel is between
        ``run_until``/``step`` calls.  Inside a running drain batch the
        count lags the in-flight batch (same cadence as the batched
        metrics) — cancellations are always reflected immediately.
        """
        return self._pending

    def post_at(self, tick: int, callback: Callback, label: str = "") -> None:
        """Schedule ``callback`` at absolute time ``tick``, fire-and-forget.

        The fast path: no :class:`EventHandle` is allocated unless the
        event is labelled *and* tracing is on, so use this for hot
        events that are never cancelled.  Semantics are otherwise
        identical to :meth:`schedule_at`.
        """
        if tick < self.clock._now:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} at tick {tick}; "
                f"now is {self.clock._now}"
            )
        seq = self._seq
        payload: Union[Callback, EventHandle] = (
            EventHandle(tick, seq, callback, label, self)
            if label and self._trace_enabled
            else callback
        )
        heapq.heappush(self._heap, (tick, seq, payload))
        self._seq = seq + 1
        self._pending += 1

    def reserve_seq(self) -> int:
        """Claim the next tie-break ``seq`` without posting anything.

        A private timeline reserves a seq exactly where it would have
        called :meth:`post_at`, so its entry holds the ``(tick, seq)``
        place in the firing order that the posted event would have had.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def post_reserved(
        self, tick: int, seq: int, callback: Callback, label: str = ""
    ) -> None:
        """:meth:`post_at`, but under a ``seq`` from :meth:`reserve_seq`.

        Goes through ``self.post_at`` (with ``_seq`` rewound for the one
        call), so anything wrapping ``post_at`` sees the wake too.
        """
        next_seq = self._seq
        self._seq = seq
        try:
            self.post_at(tick, callback, label)
        finally:
            self._seq = next_seq

    @property
    def queue(self) -> list[Entry]:
        """The live event heap, for lookahead: ``queue[0]`` is the next
        ``(tick, seq, payload)`` to fire (possibly a tombstone, which is
        only ever an earlier horizon than needed).  Read-only by
        contract; the list object is stable for the kernel's lifetime.
        """
        return self._heap

    @property
    def drain_bound(self) -> int:
        """The last tick the running drain may reach.

        The ``run_until`` target, the fired event's tick under
        :meth:`step`, or :data:`UNBOUNDED` under
        :meth:`run_to_completion`.  A private timeline drained from an
        event callback must not move the clock past it.
        """
        return self._bound

    def post(self, delay: int, callback: Callback, label: str = "") -> None:
        """Schedule ``callback`` ``delay`` ticks from now, fire-and-forget.

        Body duplicates :meth:`post_at` minus the past-tick guard
        (``delay >= 0`` implies it): this is the hottest scheduling
        call, worth one call frame per event.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for {label or callback!r}")
        tick = self.clock._now + delay
        seq = self._seq
        payload: Union[Callback, EventHandle] = (
            EventHandle(tick, seq, callback, label, self)
            if label and self._trace_enabled
            else callback
        )
        heapq.heappush(self._heap, (tick, seq, payload))
        self._seq = seq + 1
        self._pending += 1

    def schedule_at(self, tick: int, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire at absolute time ``tick``.

        Scheduling at the current tick is allowed (fires after the events
        already queued for that tick); scheduling in the past is an error.
        Returns a cancellable :class:`EventHandle`; prefer
        :meth:`post_at` for events that never need one.
        """
        if tick < self.clock.now:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} at tick {tick}; "
                f"now is {self.clock.now}"
            )
        handle = EventHandle(tick, self._seq, callback, label, self)
        heapq.heappush(self._heap, (tick, self._seq, handle))
        self._seq += 1
        self._pending += 1
        return handle

    def schedule(self, delay: int, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` ticks from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for {label or callback!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    # -- tombstones ------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Bookkeeping for a just-cancelled, still-queued event."""
        self._pending -= 1
        self._tombstones += 1
        # Compact when tombstones outnumber live entries, i.e. exceed
        # half the queue; the floor keeps small queues compaction-free.
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones > self._pending
        ):
            self._compact()

    @staticmethod
    def _entry_live(entry: Entry) -> bool:
        payload = entry[2]
        if isinstance(payload, EventHandle):
            return payload.callback is not None
        return True

    def _compact(self) -> None:
        """Drop tombstoned entries from the heap in place.

        In-place mutation matters: the hot loop holds a local alias of
        the heap list.
        """
        self._heap[:] = [e for e in self._heap if self._entry_live(e)]
        heapq.heapify(self._heap)
        self._tombstones = 0

    # -- metrics ---------------------------------------------------------

    def _flush_metrics(self) -> None:
        """Bring the kernel instruments up to date (batched hot path)."""
        if self._m_events is None:
            return
        delta = self._events_fired - self._m_reported
        if delta:
            self._m_events.inc(delta)
            self._m_reported = self._events_fired
        if self._m_queue is not None:
            self._m_queue.set(self._pending)

    # -- execution -------------------------------------------------------

    def _fire_entry(self, entry: Entry) -> None:
        """Fire one live entry (slow path shared by step())."""
        time = entry[0]
        payload = entry[2]
        if isinstance(payload, EventHandle):
            callback = payload.callback
            payload.callback = None
            label = payload.label
        else:
            callback = payload
            label = ""
        self.clock.advance_to(time)
        self._pending -= 1
        self._events_fired += 1
        assert callback is not None  # tombstones are filtered by callers
        spans = self._spans
        if label and spans is not None:
            span = spans.begin(label, "kernel", time)
            prev = spans.push(span)
            try:
                callback()
            finally:
                spans.pop(prev)
                spans.end(span, time)
            return
        callback()

    def _pop_live(self, until: Optional[int] = None) -> Optional[Entry]:
        """Pop the next live entry, discarding tombstones.

        With ``until``, the head is peeked before popping: an entry
        beyond ``until`` is never disturbed and ``None`` is returned.
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                return None
            entry = heapq.heappop(heap)
            if self._entry_live(entry):
                return entry
            self._tombstones -= 1
        return None

    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remain.

        The drain bound is the event's own tick, so a timeline the
        event drains stays on that tick.
        """
        entry = self._pop_live()
        if entry is None:
            self._flush_metrics()
            return False
        self._bound = entry[0]
        self._fire_entry(entry)
        self._flush_metrics()
        return True

    def run_until(self, tick: int, require_events: bool = False) -> None:
        """Run events until simulated time reaches ``tick``.

        Events scheduled exactly at ``tick`` fire; the clock finishes at
        ``tick`` even if the queue drains earlier (unless
        ``require_events`` demands live events the whole way, in which
        case draining early raises :class:`DeadlockError`).
        """
        if tick < self.clock.now:
            raise SchedulingError(
                f"run_until target {tick} is before now {self.clock.now}"
            )
        self._bound = tick
        try:
            if self._spans is not None:
                # Traced runs take a separate drain so the untraced hot
                # loop stays overhead-free.
                self._drain_spans(tick)
            else:
                self._drain_heap(tick)
        finally:
            self._flush_metrics()
        if require_events and self._pending == 0 and self.clock.now < tick:
            raise DeadlockError(
                f"event heap drained at {self.clock.now} before reaching {tick}"
            )
        self.clock.advance_to(tick)
        self._flush_metrics()

    @hot_path
    def _drain_heap(self, until: int) -> None:
        """Fire all events with ``time <= until`` from the binary heap.

        The hot loop: local aliases, tuple peeks, and batched counters.
        The head is *peeked* first, so an event beyond ``until`` is
        never popped and re-pushed.
        """
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        handle_cls = EventHandle
        flush_mask = _FLUSH_MASK
        fired = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > until:
                    break
                pop(heap)
                payload = entry[2]
                if payload.__class__ is handle_cls:
                    callback = payload.callback
                    if callback is None:  # tombstone
                        self._tombstones -= 1
                        continue
                    payload.callback = None
                    clock._now = time
                else:
                    callback = payload
                    clock._now = time
                fired += 1
                if not fired & flush_mask:
                    self._events_fired += METRICS_FLUSH_INTERVAL
                    self._pending -= METRICS_FLUSH_INTERVAL
                    self._flush_metrics()
                callback()
        finally:
            remainder = fired & flush_mask
            self._events_fired += remainder
            self._pending -= remainder

    def _drain_spans(self, until: int) -> None:
        """Fire all events with ``time <= until``, wrapping each labelled
        event in a kernel span.

        The traced sibling of :meth:`_drain_heap`: same batched-metrics
        cadence, same finally-block remainder flush, but every labelled
        event becomes an ambient ``kernel``-category span for the
        duration of its callback, so spans opened inside the callback
        (bluetooth, LAN, core) parent to the dispatch that caused them.
        Kept apart from the hot loop: a merged loop measured 3-8 % slower
        on untraced runs (docs/performance.md, "One event queue").
        """
        spans = self._spans
        assert spans is not None
        clock = self.clock
        handle_cls = EventHandle
        flush_mask = _FLUSH_MASK
        fired = 0
        try:
            while True:
                entry = self._pop_live(until)
                if entry is None:
                    break
                time = entry[0]
                payload = entry[2]
                if payload.__class__ is handle_cls:
                    callback = payload.callback
                    payload.callback = None
                    label = payload.label
                else:
                    callback = payload
                    label = ""
                clock._now = time
                fired += 1
                if not fired & flush_mask:
                    self._events_fired += METRICS_FLUSH_INTERVAL
                    self._pending -= METRICS_FLUSH_INTERVAL
                    self._flush_metrics()
                assert callback is not None  # _pop_live skips tombstones
                if label:
                    span = spans.begin(label, "kernel", time)
                    prev = spans.push(span)
                    try:
                        callback()
                    finally:
                        spans.pop(prev)
                        spans.end(span, time)
                else:
                    callback()
        finally:
            remainder = fired & flush_mask
            self._events_fired += remainder
            self._pending -= remainder

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue is empty.

        Args:
            max_events: safety valve against runaway self-rescheduling
                loops; exceeding it raises :class:`DeadlockError`.
        """
        fired = 0
        self._bound = UNBOUNDED
        while True:
            entry = self._pop_live()
            if entry is None:
                break
            self._fire_entry(entry)
            fired += 1
            if fired > max_events:
                self._flush_metrics()
                logger.error(
                    "runaway event loop: %d events without draining (t=%d)",
                    fired,
                    self.clock.now,
                )
                raise DeadlockError(
                    f"run_to_completion exceeded {max_events} events at "
                    f"t={self.clock.now} ({seconds_from_ticks(self.clock.now):.3f}s)"
                )
        self._flush_metrics()

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self.clock.now}, pending={self.pending_events}, "
            f"fired={self._events_fired})"
        )
