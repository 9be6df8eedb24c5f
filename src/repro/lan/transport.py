"""A simulated Ethernet LAN connecting workstations and the server.

Switched office Ethernet is effectively reliable with sub-millisecond
latency: every message takes a fixed 0.3 ms plus up to 0.2 ms of
jitter.  Loss is configurable so the benches can study BIPS under a
degraded network as an extension experiment.

Two optional layers extend the base transport:

* **Fault injection** — a :class:`repro.faults.LANFaultInjector` passed
  as ``fault_injector`` is consulted once per send and may drop, delay,
  or duplicate the message (``docs/fault-injection.md``).  This is the
  declared injection seam; nothing monkeypatches delivery internals.
* **Reliable delivery** — :meth:`LANTransport.send_reliable` adds
  transport-level retransmission: per-(source, destination) sequence
  numbers, receiver-side acks and duplicate suppression, and bounded
  retry with exponential backoff under the one retry rule below.  Acks
  are internal control frames: they ride the same latency/loss/fault
  path but never reach endpoint handlers and are counted separately
  (``lan.acks_sent``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.clock import ticks_from_milliseconds
from repro.sim.hotpath import hot_path
from repro.sim.kernel import EventHandle, Kernel
from repro.sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import LANFaultInjector
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Span, SpanTracer

#: A handler receives ``(source_endpoint, message)``.
Handler = Callable[[str, Any], None]

#: Fixed per-frame overhead in the wire-size estimate (headers etc.).
_FRAME_OVERHEAD_BYTES = 32

#: Latency-histogram buckets in ticks (1 tick = 312.5 µs).
_LATENCY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)

#: "No trace context supplied" sentinel for :meth:`LANTransport._transmit`.
#: Distinct from None: a reliable retransmission legitimately carries
#: ``ctx=None`` (captured outside any trace) and must NOT fall back to
#: the ambient context of the retry-timer event that fired it.
_NO_CTX = object()


def _wire_bytes(message: Any, field_names: tuple[str, ...]) -> int:
    """Modelled wire size of one message, for ``lan.bytes_sent``.

    Nothing is serialised, so this is a fixed frame overhead plus a
    per-field estimate over ``field_names``: deterministic and
    proportional to payload complexity, which is all a load counter
    needs.
    """
    size = _FRAME_OVERHEAD_BYTES
    for name in field_names:
        value = getattr(message, name)
        if isinstance(value, str):
            size += len(value.encode("utf-8"))
        elif isinstance(value, bool) or value is None:
            size += 1
        elif isinstance(value, (int, float)):
            size += 8
        elif isinstance(value, (tuple, list)):
            size += 2 + sum(len(str(item)) for item in value)
        else:  # BDAddr and other small objects
            size += 8
    return size


class UnknownEndpointError(Exception):
    """A message was addressed to an endpoint that never registered."""


@dataclass(frozen=True)
class DeliveryAck:
    """Transport-internal ack frame for one reliable delivery.

    Never delivered to endpoint handlers; exposed only so fault
    injectors (and tests) can recognise — and drop — acks.
    """

    seq: int


#: One-way delivery latency of the office LAN: a fixed base plus a
#: uniform jitter, in milliseconds.
LATENCY_BASE_MS = 0.3
LATENCY_JITTER_MS = 0.2
#: The jitter-free sample, which a transport without an rng uses.
_LATENCY_BASE_TICKS = max(1, ticks_from_milliseconds(LATENCY_BASE_MS))


def latency_ticks(rng: Optional[RandomStream]) -> int:
    """One latency sample in ticks (at least 1); no jitter without ``rng``."""
    if rng is None:
        return _LATENCY_BASE_TICKS
    jitter = rng.uniform(0.0, LATENCY_JITTER_MS)
    return max(1, ticks_from_milliseconds(LATENCY_BASE_MS + jitter))


#: The retry rule of :meth:`LANTransport.send_reliable`, which
#: workstations push through whenever a fault plan is active.  Every
#: transmission counts, the first included: one send plus up to three
#: retries.
RETRY_MAX_ATTEMPTS = 4
#: Ack timeout of the first transmission; an office-LAN RTT is well
#: under 1 ms.
RETRY_TIMEOUT_MS = 8.0
#: Each retry waits this many times longer than the one before.
RETRY_BACKOFF_FACTOR = 2.0
#: Upper bound of the uniform jitter added to every timeout; jitter
#: decorrelates retry bursts when many senders lose messages to the
#: same network event.
RETRY_JITTER_MS = 2.0


def retry_timeout_ticks(attempt: int, rng: Optional[RandomStream]) -> int:
    """Ticks to wait for an ack after transmission ``attempt`` (1-based).

    ``RETRY_TIMEOUT_MS * RETRY_BACKOFF_FACTOR**(attempt-1) +
    U(0, RETRY_JITTER_MS)``; no jitter without an ``rng``, so retry
    timing is as reproducible as everything else.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based: {attempt}")
    timeout = RETRY_TIMEOUT_MS * RETRY_BACKOFF_FACTOR ** (attempt - 1)
    if rng is not None:
        timeout += rng.uniform(0.0, RETRY_JITTER_MS)
    return max(1, ticks_from_milliseconds(timeout))


@dataclass
class TransportStats:
    """LAN counters."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    #: Reliable-delivery counters (zero unless ``send_reliable`` is used).
    reliable_sent: int = 0
    duplicates_dropped: int = 0
    retries: int = 0
    retries_exhausted: int = 0
    acks_sent: int = 0
    aborted: int = 0


@dataclass
class _PendingReliable:
    """One reliable message awaiting its ack."""

    source: str
    destination: str
    message: Any
    attempt: int = 1
    timer: Optional[EventHandle] = None
    #: Trace context captured at ``send_reliable`` time, so every
    #: retransmission parents to the span of the *original* send.
    ctx: Any = None


class LANTransport:
    """Delivers messages between named endpoints with simulated latency."""

    def __init__(
        self,
        kernel: Kernel,
        loss_probability: float = 0.0,
        rng: Optional[RandomStream] = None,
        metrics: Optional["MetricsRegistry"] = None,
        fault_injector: Optional["LANFaultInjector"] = None,
        spans: Optional["SpanTracer"] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss probability out of range: {loss_probability}")
        if loss_probability > 0.0 and rng is None:
            raise ValueError("a lossy transport needs an rng")
        self.kernel = kernel
        self.loss_probability = loss_probability
        self.rng = rng
        self.faults = fault_injector
        self._spans = spans
        self.stats = TransportStats()
        self._endpoints: dict[str, Handler] = {}
        #: Every endpoint that ever registered.  A send to a name in
        #: here that is *currently* unregistered models a message to a
        #: crashed/browned-out machine: silently dropped, not a wiring
        #: bug.
        self._known_endpoints: set[str] = set()
        # Per-message-type memo: (kernel label, wire field names).  The
        # f-string and the dataclasses.fields() walk would otherwise
        # repeat per send for a handful of distinct frozen message types.
        self._type_cache: dict[str, tuple[str, tuple[str, ...]]] = {}
        # Reliable-delivery state.  Sequence numbers and receiver-side
        # dedup model the endpoints' network stacks; keeping them in the
        # transport (rather than each endpoint object) means a crashed
        # workstation's *process* state dies while its protocol state
        # survives, like a kernel socket outliving an application crash
        # would not — so crashes also call :meth:`abort_pending`.
        self._next_seq: dict[tuple[str, str], int] = {}
        self._pending: dict[tuple[str, str, int], _PendingReliable] = {}
        # (destination, source) -> delivered seqs.  Unbounded, but delta
        # traffic is a few messages per workstation per 15.4 s cycle, so
        # sim-scale runs stay small.
        self._seen_seqs: dict[tuple[str, str], set[int]] = {}
        # Only what :attr:`stats` does not count is pushed per message;
        # ``BIPSSimulation.finalize_metrics`` reads the rest from stats.
        self._metrics = metrics
        if metrics is not None:
            self._m_bytes = metrics.counter("lan.bytes_sent")
            self._m_in_flight = metrics.gauge("lan.messages_in_flight")
            self._m_latency = metrics.histogram(
                "lan.delivery_latency_ticks", buckets=_LATENCY_BUCKETS
            )

    def register(self, endpoint: str, handler: Handler) -> None:
        """Attach ``handler`` as the receiver for ``endpoint``."""
        if endpoint in self._endpoints:
            raise ValueError(f"endpoint {endpoint!r} already registered")
        self._endpoints[endpoint] = handler
        self._known_endpoints.add(endpoint)

    def unregister(self, endpoint: str) -> None:
        """Detach an endpoint; in-flight messages to it are dropped.

        The name stays *known*: later sends to it are silently dropped
        (a crashed or browned-out machine) instead of raising, and a
        re-``register`` restores delivery.
        """
        self._endpoints.pop(endpoint, None)

    # -- sending ---------------------------------------------------------------

    def send(self, source: str, destination: str, message: Any) -> None:
        """Queue ``message`` for delivery after a latency sample.

        Sending to an endpoint that has *never* registered raises
        immediately (a wiring bug); an endpoint that unregistered —
        before the send or while a message is in flight — silently
        drops it (a crash/restart).
        """
        if destination not in self._known_endpoints:
            raise UnknownEndpointError(f"no endpoint {destination!r}")
        self._transmit(source, destination, message, seq=None)

    def send_reliable(self, source: str, destination: str, message: Any) -> None:
        """Send with transport-level retransmission.

        The message gets a per-(source, destination) sequence number;
        delivery is acked by the receiving side and retransmitted on
        timeout, backing off exponentially, until acked or
        ``RETRY_MAX_ATTEMPTS`` transmissions have gone out.  The receiver
        suppresses duplicate deliveries (a re-sent message observed
        twice is counted in ``lan.duplicates_dropped``, never handed to
        the handler again).
        """
        if destination not in self._known_endpoints:
            raise UnknownEndpointError(f"no endpoint {destination!r}")
        pair = (source, destination)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        self.stats.reliable_sent += 1
        self._pending[(source, destination, seq)] = _PendingReliable(
            source=source,
            destination=destination,
            message=message,
            ctx=self._spans.capture() if self._spans is not None else None,
        )
        self._attempt((source, destination, seq))

    def abort_pending(self, source: str) -> int:
        """Drop every un-acked reliable send from ``source``.

        A crashed endpoint loses its send state with its process; the
        restart re-reports from scratch instead of replaying a dead
        queue.  Returns how many sends were aborted.
        """
        keys = [key for key in sorted(self._pending) if key[0] == source]
        for key in keys:
            pending = self._pending.pop(key)
            if pending.timer is not None:
                pending.timer.cancel()
        self.stats.aborted += len(keys)
        return len(keys)

    @property
    def pending_reliable(self) -> int:
        """Reliable sends still awaiting their ack."""
        return len(self._pending)

    # -- wire path --------------------------------------------------------------

    def _transmit(
        self,
        source: str,
        destination: str,
        message: Any,
        seq: Optional[int],
        ctx: Any = _NO_CTX,
    ) -> None:
        """One transmission attempt (plain send or reliable (re)try).

        ``ctx`` is the trace context the transit spans parent to;
        callers without a stored context (plain :meth:`send`) leave the
        sentinel so the ambient context at call time is used.
        """
        self.stats.sent += 1
        type_name = type(message).__name__
        self.stats.by_type[type_name] = self.stats.by_type.get(type_name, 0) + 1
        cached = self._type_cache.get(type_name)
        if cached is None:
            cached = (
                f"lan:{type_name}",
                tuple(spec.name for spec in fields(message))
                if is_dataclass(message)
                else (),
            )
            self._type_cache[type_name] = cached
        label, field_names = cached
        if self._metrics is not None:
            self._m_bytes.inc(_wire_bytes(message, field_names))
        spans = self._spans
        parent: Any = None
        if spans is not None:
            parent = spans.capture() if ctx is _NO_CTX else ctx
        if destination not in self._endpoints:
            # Known endpoint, currently down (crash/brownout): the wire
            # accepts the frame and nobody hears it.
            self._drop(parent, type_name, source, destination)
            return
        if self.loss_probability and self.rng and self.rng.random() < self.loss_probability:
            self._drop(parent, type_name, source, destination)
            return
        extra_delay = 0
        copies = 1
        if self.faults is not None:
            decision = self.faults.decide(self.kernel.now, source, destination, message)
            if decision.drop:
                self._drop(parent, type_name, source, destination)
                return
            extra_delay = decision.extra_delay_ticks
            copies = 1 + decision.duplicates
        for _ in range(copies):
            delay = latency_ticks(self.rng) + extra_delay
            if self._metrics is not None:
                self._m_in_flight.inc()
                self._m_latency.observe(delay)
            if spans is not None:
                # One transit span per wire copy, [send, deliver]; its
                # fate (delivered / dropped / dedup) lands in ``outcome``
                # when the copy resolves at _deliver time.
                if seq is None:
                    span = spans.begin(
                        "lan.transit", "lan", self.kernel.now, parent=parent,
                        type=type_name, src=source, dst=destination,
                    )
                else:
                    span = spans.begin(
                        "lan.transit", "lan", self.kernel.now, parent=parent,
                        type=type_name, src=source, dst=destination, seq=seq,
                    )
                self.kernel.post(
                    delay,
                    lambda s=span: self._deliver(source, destination, message, seq, span=s),
                    label=label,
                )
                continue
            # Deliveries are never cancelled: use the kernel's
            # handle-free fast path.
            self.kernel.post(
                delay,
                lambda: self._deliver(source, destination, message, seq),
                label=label,
            )

    def _drop(self, parent: Any, type_name: str, source: str, destination: str) -> None:
        """Lose a frame on the wire: count it and, with spans on, record
        its ``lan.transit`` instant."""
        self.stats.dropped += 1
        if self._spans is not None:
            self._spans.instant(
                "lan.transit", "lan", self.kernel.now, parent=parent,
                type=type_name, src=source, dst=destination, outcome="dropped",
            )

    @hot_path
    def _deliver(
        self,
        source: str,
        destination: str,
        message: Any,
        seq: Optional[int],
        span: Optional["Span"] = None,
    ) -> None:
        if self._metrics is not None:
            self._m_in_flight.dec()
        handler = self._endpoints.get(destination)
        if handler is None:
            self.stats.dropped += 1
            self._end_transit(span, "dropped")
            return
        if seq is not None:
            seen = self._seen_seqs.setdefault((destination, source), set())
            if seq in seen:
                # A retransmission (or injected duplicate) of a message
                # this endpoint already consumed: suppress it, but re-ack
                # — the original ack may be the thing that got lost.
                self.stats.duplicates_dropped += 1
                self._send_ack(destination, source, seq)
                self._end_transit(span, "dedup")
                return
            seen.add(seq)
        self.stats.delivered += 1
        if span is not None and self._spans is not None:
            # The handler runs inside the transit span, so DB-apply and
            # query spans it opens nest under the message that caused them.
            prev = self._spans.push(span)
            try:
                handler(source, message)
            finally:
                self._spans.pop(prev)
            self._end_transit(span, "delivered")
        else:
            handler(source, message)
        if seq is not None:
            self._send_ack(destination, source, seq)

    def _end_transit(self, span: Optional["Span"], outcome: str) -> None:
        """Close one transit span with its resolution."""
        if span is None or self._spans is None:
            return
        span.attrs["outcome"] = outcome
        self._spans.end(span, self.kernel.now)

    # -- reliable machinery ------------------------------------------------------

    def _attempt(self, key: tuple[str, str, int]) -> None:
        pending = self._pending[key]
        self._transmit(
            pending.source, pending.destination, pending.message, key[2],
            ctx=pending.ctx,
        )
        timeout = retry_timeout_ticks(pending.attempt, self.rng)
        pending.timer = self.kernel.schedule(
            timeout, lambda: self._on_timeout(key), label="lan:retry-timer"
        )

    def _on_timeout(self, key: tuple[str, str, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:  # acked while the timer event was in the queue
            return
        if pending.attempt >= RETRY_MAX_ATTEMPTS:
            del self._pending[key]
            self.stats.retries_exhausted += 1
            return
        pending.attempt += 1
        self.stats.retries += 1
        self._attempt(key)

    def _send_ack(self, from_endpoint: str, to_endpoint: str, seq: int) -> None:
        """The receiver's network stack acks one reliable delivery.

        Acks ride the same latency/loss/fault path as data but are
        transport-internal: they cancel the sender's retry timer instead
        of reaching a handler, and only ``lan.acks_sent`` counts them.
        """
        self.stats.acks_sent += 1
        if self.loss_probability and self.rng and self.rng.random() < self.loss_probability:
            return
        extra_delay = 0
        if self.faults is not None:
            decision = self.faults.decide(
                self.kernel.now, from_endpoint, to_endpoint, DeliveryAck(seq)
            )
            if decision.drop:
                return
            extra_delay = decision.extra_delay_ticks
        delay = latency_ticks(self.rng) + extra_delay
        key = (to_endpoint, from_endpoint, seq)
        self.kernel.post(delay, lambda: self._on_ack(key), label="lan:ack")  # lint: disable=PERF001 -- the closure IS the scheduled event payload; one allocation per ack is the cost of posting it

    def _on_ack(self, key: tuple[str, str, int]) -> None:
        pending = self._pending.pop(key, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    @property
    def endpoint_names(self) -> list[str]:
        """Currently registered endpoints."""
        return list(self._endpoints)
