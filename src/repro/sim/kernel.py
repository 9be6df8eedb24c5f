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
  (``schedule_at``/``schedule``).
* Cancellation is a tombstone: the entry stays queued and is skipped
  when it surfaces.  A tombstone counter keeps
  :attr:`Kernel.pending_events` O(1), and the queue is compacted when
  tombstones outnumber live entries.
* The hot loop counts fired events in a local and adds them to
  :attr:`Kernel.events_fired` when the drain returns; the kernel pushes
  no metrics (``BIPSSimulation.finalize_metrics`` reads its counters).
* ``run_until`` peeks at the queue head and never pops an event beyond
  the target tick, so crossing a boundary does not pay a pop + re-push.
* A kernel with a :class:`~repro.obs.tracing.SpanTracer` attached
  wraps each labelled callback in its ``kernel`` span as it queues it
  (the kernel's only record of what fired), so traced and untraced runs
  drain through the same loop and the loop carries no span checks.
* A component may keep private timelines of its own pending work and
  drain them inside one kernel event, provided it keeps exact
  ``(tick, seq)`` order with the heap: :meth:`Kernel.reserve_seq` hands
  out a tie-break ``seq`` without posting, :meth:`Kernel.post_reserved`
  posts a wake under such a seq, :attr:`Kernel.queue` is the live heap
  whose head is the lookahead horizon, and :attr:`Kernel.drain_bound`
  is the last tick the current drain may reach.  The inquiry-scan
  swarms of one kernel share one such drain
  (:class:`~repro.bluetooth.swarm.SwarmDrain`): one wake, posted under
  the earliest swarm entry's seq, hands over from swarm to swarm, and
  opens each swarm's ``kernel`` span itself through
  :attr:`Kernel.spans`.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from .clock import SimClock
from .errors import SchedulingError
from .hotpath import hot_path

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layering cycle
    from repro.obs.tracing import SpanTracer

Callback = Callable[[], Any]

#: Unused by the kernel; kept because ``bipsbench/worker.py`` imports it.
SCHEDULER_ENV_VAR = "BIPS_SIM_SCHEDULER"

#: Tombstone count below which compaction is never attempted.
_COMPACT_MIN_TOMBSTONES = 64


class EventHandle:
    """A cancellable handle to a scheduled event.

    Cancellation is lazy: the queue entry stays put but is skipped when
    it reaches the front, which keeps cancellation O(1).  The owning
    kernel keeps an exact tombstone counter, so cancellation also
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

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, label={self.label!r}, {state})"


def _in_span(spans: "SpanTracer", label: str, tick: int, callback: Callback) -> None:
    """Fire a labelled event's callback inside its ``kernel`` span.

    Bound with :func:`functools.partial` where the event is queued, so
    spans opened inside the callback (bluetooth, LAN, core) parent to
    the dispatch that caused them.
    """
    span = spans.begin(label, "kernel", tick)
    prev = spans.push(span)
    try:
        callback()
    finally:
        spans.pop(prev)
        spans.end(span, tick)


#: A queue entry.  The payload is the bare callback on the fast path
#: and an :class:`EventHandle` for cancellable events; ``seq`` is
#: unique so tuple comparison never reaches the payload.
Entry = tuple[int, int, Union[Callback, EventHandle]]


class Kernel:
    """Discrete-event simulator core.

    Typical use::

        kernel = Kernel()
        kernel.schedule(100, machine.on_timer)
        kernel.run_until(1000)
    """

    def __init__(self, spans: Optional["SpanTracer"] = None) -> None:
        self.clock = SimClock()
        # With a SpanTracer attached, every labelled event is queued
        # wrapped in a kernel span (_in_span).
        self._spans = spans
        self._seq = 0
        self._events_fired = 0
        self._tombstones = 0
        self._heap: list[Entry] = []
        self._bound = 0

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

        Exact at ``run_until``/``step`` boundaries; inside a running
        drain it lags by the events that drain has fired (the hot loop
        keeps its counter in a local).
        """
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        The queue length minus its tombstones: O(1) and exact at every
        moment, inside a running drain included.
        """
        return len(self._heap) - self._tombstones

    def post_at(self, tick: int, callback: Callback, label: str = "") -> None:
        """Schedule ``callback`` at absolute time ``tick``, fire-and-forget.

        The fast path: no :class:`EventHandle` is allocated, so use this
        for hot events that are never cancelled.  Semantics are
        otherwise identical to :meth:`schedule_at`.
        """
        if tick < self.clock._now:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} at tick {tick}; "
                f"now is {self.clock._now}"
            )
        seq = self._seq
        if label and self._spans is not None:
            callback = partial(_in_span, self._spans, label, tick, callback)
        heapq.heappush(self._heap, (tick, seq, callback))
        self._seq = seq + 1

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
    def spans(self) -> Optional["SpanTracer"]:
        """The span tracer labelled events are wrapped in, or None.

        The one tracer of a run: every component on this kernel records
        its spans here, and a private timeline drained from one
        unlabelled wake opens the ``kernel`` spans of its own runs with
        it.
        """
        return self._spans

    @property
    def drain_bound(self) -> int:
        """The last tick the running drain may reach.

        The ``run_until`` target, or the fired event's tick under
        :meth:`step`.  A private timeline drained from an event callback
        must not move the clock past it.
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
        if label and self._spans is not None:
            callback = partial(_in_span, self._spans, label, tick, callback)
        heapq.heappush(self._heap, (tick, seq, callback))
        self._seq = seq + 1

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
        if label and self._spans is not None:
            callback = partial(_in_span, self._spans, label, tick, callback)
        handle = EventHandle(tick, self._seq, callback, label, self)
        heapq.heappush(self._heap, (tick, self._seq, handle))
        self._seq += 1
        return handle

    def schedule(self, delay: int, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` ticks from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for {label or callback!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    # -- tombstones ------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Bookkeeping for a just-cancelled, still-queued event."""
        self._tombstones += 1
        # Compact when tombstones outnumber live entries, i.e. exceed
        # half the queue; the floor keeps small queues compaction-free.
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and 2 * self._tombstones > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries from the heap in place.

        In-place mutation matters: the hot loop holds a local alias of
        the heap list.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if not isinstance(entry[2], EventHandle) or entry[2].callback is not None
        ]
        heapq.heapify(self._heap)
        self._tombstones = 0

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remain.

        The drain bound is the event's own tick, so a timeline the
        event drains stays on that tick.
        """
        heap = self._heap
        while heap:
            time, _, payload = heapq.heappop(heap)
            if isinstance(payload, EventHandle):
                callback = payload.callback
                if callback is None:  # tombstone
                    self._tombstones -= 1
                    continue
                payload.callback = None
            else:
                callback = payload
            self._bound = time
            self.clock.advance_to(time)
            self._events_fired += 1
            callback()
            return True
        return False

    def run_until(self, tick: int) -> None:
        """Run events until simulated time reaches ``tick``.

        Events scheduled exactly at ``tick`` fire; the clock finishes at
        ``tick`` even if the queue drains earlier.
        """
        if tick < self.clock.now:
            raise SchedulingError(
                f"run_until target {tick} is before now {self.clock.now}"
            )
        self._bound = tick
        self._drain_heap(tick)
        self.clock.advance_to(tick)

    @hot_path
    def _drain_heap(self, until: int) -> None:
        """Fire all events with ``time <= until`` from the binary heap.

        The hot loop: local aliases, tuple peeks, and a local counter.
        The head is *peeked* first, so an event beyond ``until`` is
        never popped and re-pushed.
        """
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        handle_cls = EventHandle
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
                callback()
        finally:
            self._events_fired += fired

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self.clock.now}, pending={self.pending_events}, "
            f"fired={self._events_fired})"
        )
