"""Span-based causal tracing across the simulation stack.

Metrics (``repro.obs.metrics``) aggregate; spans *attribute*: one
user's presence delta can be followed from the kernel event that fired
the inquiry window, through the LAN transit of the ``PresenceUpdate``,
to the location-database row it updated — each hop a span whose parent
is the hop that caused it.

Design rules (the same contract the metrics plane obeys):

* **Deterministic.** Span identity, ordering, and the exported bytes
  are pure functions of the simulation seed.  The tracer never touches
  the simulation's random streams — sampling draws from its own
  seed-derived ``random.Random`` — and wall-clock capture is opt-in
  (``wall=True``) precisely because it would break byte-identical
  exports.  Enabling tracing changes **no** simulated result
  (``tests/obs/test_tracing_determinism.py``).
* **Free when off.** Components hold ``spans=None`` by default and
  guard every call site, so untraced runs pay nothing.  A traced run
  executes the same code as an untraced one, spans added: the kernel
  wraps a labelled callback in its ``kernel`` span where the event is
  queued and drains through its one loop either way.
* **Mergeable.** ``merge_worker_spans`` concatenates per-trial span
  lists in trial-index order and tags each record with its trial as
  the Chrome ``pid``, so ``--jobs N`` produces byte-identical merged
  traces for every N (the runner already returns payloads in index
  order).

Span times are simulation ticks (1 tick = 312.5 µs); the Chrome
exporter converts to microseconds so Perfetto renders real durations.
See ``docs/observability.md`` for the span catalogue.
"""

from __future__ import annotations

import json
import random
import time
from types import MappingProxyType
from typing import Any, Optional, Union

from repro.sim.rng import derive_seed

#: One simulation tick in microseconds (half a Bluetooth slot).
TICK_MICROSECONDS = 312.5

#: Chrome trace ``tid`` lanes, one per instrumented layer.
CATEGORY_TIDS = MappingProxyType(
    {"kernel": 1, "bluetooth": 2, "lan": 3, "core": 4}
)

#: Lane for spans of any category outside the known layers.
_OTHER_TID = 9

#: Attribute values must stay JSON-scalar so exports are deterministic.
AttrValue = Union[str, int, float, bool, None]


class _Unsampled:
    """Sentinel context: an unsampled trace is in scope, suppress children."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unsampled>"


UNSAMPLED = _Unsampled()

#: What ``SpanTracer.capture`` hands back: the active span, the
#: unsampled marker, or None (no trace in scope).
TraceContext = Union["Span", _Unsampled, None]

#: Distinct "no parent argument given" sentinel: ``begin(parent=None)``
#: forces a new root and ``parent=UNSAMPLED`` (a captured suppressed
#: context) must suppress, so the default needs its own identity.
_AMBIENT: Any = object()


class Span:
    """One timed, attributed operation in a causal tree.

    Times are simulation ticks.  ``parent_id`` is 0 for roots; every
    span in a tree shares its root's ``trace_id``.  Mutable only
    through :meth:`SpanTracer.end` and attribute updates before then.
    """

    __slots__ = (
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "start_tick",
        "end_tick",
        "attrs",
        "wall_start_ns",
        "wall_end_ns",
    )

    def __init__(
        self,
        name: str,
        category: str,
        trace_id: int,
        span_id: int,
        parent_id: int,
        start_tick: int,
        attrs: dict[str, AttrValue],
    ) -> None:
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_tick = start_tick
        self.end_tick: Optional[int] = None
        self.attrs = attrs
        self.wall_start_ns: Optional[int] = None
        self.wall_end_ns: Optional[int] = None

    def to_record(self) -> dict[str, Any]:
        """The span as a plain JSON-safe dict (the JSONL line shape)."""
        record: dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start_tick,
            "end": self.end_tick if self.end_tick is not None else self.start_tick,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.wall_start_ns is not None and self.wall_end_ns is not None:
            record["wall_us"] = (self.wall_end_ns - self.wall_start_ns) / 1000.0
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.category!r}, id={self.span_id}, "
            f"parent={self.parent_id}, [{self.start_tick}, {self.end_tick}])"
        )


class SpanTracer:
    """Collects spans with ambient context propagation and sampling.

    The *ambient context* is the span whose operation is currently
    executing; :meth:`begin` parents new spans under it unless an
    explicit ``parent`` (captured earlier, e.g. at message-send time)
    is supplied.  Sampling is decided once per root from a dedicated
    seed-derived stream — children always follow their root's fate, so
    a sampled trace is complete and an unsampled one costs nothing but
    the root's coin flip.
    """

    def __init__(
        self,
        seed: int = 0,
        sample: float = 1.0,
        wall: bool = False,
        recorder: Optional[Any] = None,
        max_spans: int = 2_000_000,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample rate out of range: {sample}")
        self.sample = sample
        self.wall = wall
        self.spans: list[Span] = []
        self.dropped = 0
        self._recorder = recorder
        self._max_spans = max_spans
        self._current: TraceContext = None
        self._next_span_id = 1
        self._sample_rng = random.Random(derive_seed(seed, "obs", "tracing"))

    # -- span lifecycle ---------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        tick: int,
        parent: Any = _AMBIENT,
        **attrs: AttrValue,
    ) -> Optional[Span]:
        """Open a span; returns None when sampled out (callers pass it on).

        ``parent`` defaults to the ambient context; pass a context
        captured earlier (:meth:`capture`) to parent an asynchronous
        continuation, or ``None`` to force a new root.
        """
        if parent is _AMBIENT:
            parent = self._current
        if isinstance(parent, _Unsampled):
            return None
        if parent is None:
            if self.sample < 1.0 and self._sample_rng.random() >= self.sample:
                return None
            trace_id = self._next_span_id
            parent_id = 0
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        if len(self.spans) >= self._max_spans:
            self.dropped += 1
            return None
        span = Span(name, category, trace_id, self._next_span_id, parent_id, tick, attrs)
        self._next_span_id += 1
        if self.wall:
            span.wall_start_ns = time.perf_counter_ns()
        self.spans.append(span)
        return span

    def end(self, span: Optional[Span], tick: int) -> None:
        """Close ``span`` at ``tick``; a None span is a no-op."""
        if span is None:
            return
        span.end_tick = tick
        if self.wall and span.wall_start_ns is not None:
            span.wall_end_ns = time.perf_counter_ns()
        if self._recorder is not None:
            self._recorder.note(span.to_record())

    def instant(
        self,
        name: str,
        category: str,
        tick: int,
        parent: Any = _AMBIENT,
        **attrs: AttrValue,
    ) -> Optional[Span]:
        """A zero-duration span (Chrome renders it as an instant mark)."""
        span = self.begin(name, category, tick, parent=parent, **attrs)
        self.end(span, tick)
        return span

    # -- context propagation ----------------------------------------------

    def capture(self) -> TraceContext:
        """The ambient context, to be re-activated at a later hop.

        Store this with an in-flight message and pass it as ``parent``
        (or re-enter it with :meth:`push`) where the message lands:
        that is what keeps retransmit and dedup hops on the span of the
        send that caused them.
        """
        return self._current

    def push(self, span: Optional[Span]) -> TraceContext:
        """Make ``span`` ambient; returns the context to :meth:`pop`.

        Pushing None (an unsampled span) suppresses descendants, so a
        sampled-out root never produces orphaned children.
        """
        prev = self._current
        self._current = span if span is not None else UNSAMPLED
        return prev

    def pop(self, prev: TraceContext) -> None:
        """Restore the context returned by the matching :meth:`push`."""
        self._current = prev

    # -- export ------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """All spans as plain dicts, in creation order (deterministic)."""
        return [span.to_record() for span in self.spans]

    def __len__(self) -> int:
        return len(self.spans)


# -- cross-worker merge -----------------------------------------------------


def merge_worker_spans(span_lists: list[list[dict[str, Any]]]) -> list[dict[str, Any]]:
    """Merge per-trial span records into one deterministic trace.

    ``span_lists[i]`` must be trial ``i``'s records (the runner returns
    payloads in trial-index order regardless of worker scheduling, so
    serial and ``--jobs N`` merges are byte-identical).  Each record is
    tagged with its trial index as ``pid`` — the Chrome exporter turns
    that into one process lane per trial.
    """
    merged: list[dict[str, Any]] = []
    for index, records in enumerate(span_lists):
        for record in records:
            tagged = dict(record)
            tagged["pid"] = index
            merged.append(tagged)
    return merged


# -- Chrome trace-event export ----------------------------------------------


def chrome_trace(
    records: list[dict[str, Any]], process_name: str = "bips"
) -> dict[str, Any]:
    """Span records as a Chrome trace-event document (Perfetto-loadable).

    Layout: one ``pid`` per trial (or 0 for a single run), one ``tid``
    lane per layer (kernel/bluetooth/lan/core).  Spans with duration
    become complete events (``ph: "X"``); zero-duration spans become
    thread-scoped instants (``ph: "i"``).  Causality (trace / span /
    parent ids) rides in ``args``.
    """
    events: list[dict[str, Any]] = []
    seen_pids: list[int] = []
    seen_lanes: set[tuple[int, int]] = set()
    lane_names: dict[tuple[int, int], str] = {}
    for record in records:
        pid = int(record.get("pid", 0))
        category = record["cat"]
        tid = CATEGORY_TIDS.get(category, _OTHER_TID)
        if pid not in seen_pids:
            seen_pids.append(pid)
        if (pid, tid) not in seen_lanes:
            seen_lanes.add((pid, tid))
            lane_names[(pid, tid)] = category
        start_us = record["start"] * TICK_MICROSECONDS
        duration_us = (record["end"] - record["start"]) * TICK_MICROSECONDS
        args: dict[str, Any] = {
            "trace": record["trace"],
            "span": record["span"],
            "parent": record["parent"],
        }
        args.update(record.get("attrs", {}))
        if "wall_us" in record:
            args["wall_us"] = record["wall_us"]
        event: dict[str, Any] = {
            "name": record["name"],
            "cat": category,
            "ts": start_us,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if duration_us > 0:
            event["ph"] = "X"
            event["dur"] = duration_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    metadata: list[dict[str, Any]] = []
    for pid in seen_pids:
        name = process_name if len(seen_pids) == 1 else f"{process_name} trial {pid}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    for (pid, tid), lane in sorted(lane_names.items()):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, records: list[dict[str, Any]], process_name: str = "bips"
) -> int:
    """Write the Chrome trace JSON; returns the span-event count."""
    document = chrome_trace(records, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(records)


def write_spans_jsonl(path: str, records: list[dict[str, Any]]) -> int:
    """Write one JSON object per span (keys sorted — byte-deterministic)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")
    return len(records)
