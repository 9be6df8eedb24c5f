"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The paper's whole evaluation is a set of measurements (discovery time,
discovery probability, duty-cycle tradeoffs), so the reproduction needs
one uniform way to count and time things.  Two rules keep the metrics
plane compatible with a deterministic simulator:

* **No wall clock.**  Histograms count simulated quantities (ticks,
  seconds of sim time, bytes) into fixed bucket boundaries.  Two runs
  with the same seed must export byte-identical JSONL.
* **Cheap when unused.**  No simulation component takes a registry:
  each counts in plain attributes (an int, or a value → count dict for
  a distribution), and ``BIPSSimulation.finalize_metrics`` folds those
  counts into instruments once, at the end of a run.  A run that never
  reads its metrics therefore pays a dict update per sample at most.

Series are identified by a name plus optional labels, Prometheus-style:
``registry.counter("lan.messages_sent", type="PresenceUpdate")``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, float]

DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    20_000.0,
    50_000.0,
    100_000.0,
)


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (queue depth, occupancy, ...)."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus count/sum/min/max.

    ``buckets`` are the finite upper bounds; an implicit +inf bucket
    catches the overflow.  Fixed bounds keep the export reproducible and
    immune to run-to-run noise.
    """

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name!r} buckets must strictly increase: {bounds}")
        self.name = name
        self.labels = dict(labels or {})
        self.bounds: tuple[float, ...] = bounds
        self.counts: list[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Count ``value`` in the first bucket whose bound it does not
        exceed, or in the +inf bucket above the last bound."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, value: Number, times: int) -> None:
        """``times`` observations of ``value`` at once.

        The same state as ``times`` calls of :meth:`observe` whenever
        the running sum is exact, as it is for integer samples (ticks).
        """
        if times < 1:
            raise MetricError(f"histogram {self.name!r} cannot observe {times} times")
        self.count += times
        self.sum += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += times


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All of a process's (or a simulation's) instruments, by name.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    calls with the same name and labels return the same instrument, and
    a name registered as one kind cannot be reused as another.
    """

    def __init__(self) -> None:
        self._kinds: dict[str, str] = {}
        self._series: dict[str, dict[tuple[tuple[str, str], ...], Instrument]] = {}

    def _get_or_create(self, kind: str, name: str, factory, labels: dict[str, str]):
        if not name:
            raise MetricError("metric name must be non-empty")
        registered = self._kinds.get(name)
        if registered is None:
            self._kinds[name] = kind
            self._series[name] = {}
        elif registered != kind:
            raise MetricError(
                f"metric {name!r} already registered as a {registered}, not a {kind}"
            )
        series = self._series[name]
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            instrument = factory()
            series[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(
            "counter", name, lambda: Counter(name, dict(labels)), labels
        )

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(
            "gauge", name, lambda: Gauge(name, dict(labels)), labels
        )

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        histogram = self._get_or_create(
            "histogram", name, lambda: Histogram(name, buckets, dict(labels)), labels
        )
        if buckets is not None and tuple(buckets) != histogram.bounds:
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{histogram.bounds}, not {tuple(buckets)}"
            )
        return histogram

    def instruments(self) -> Iterable[Instrument]:
        """Every registered series, in deterministic (name, labels) order."""
        for name in sorted(self._series):
            series = self._series[name]
            for key in sorted(series):
                yield series[key]

    def snapshot(self) -> list[dict]:
        """A deep, isolated copy of every series as plain dicts.

        Mutating the registry after taking a snapshot does not change
        the snapshot, and vice versa.
        """
        records: list[dict] = []
        for instrument in self.instruments():
            record: dict = {
                "kind": self._kinds[instrument.name],
                "name": instrument.name,
                "labels": dict(instrument.labels),
            }
            if isinstance(instrument, Counter):
                record["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                record["value"] = instrument.value
            else:
                record.update(
                    count=instrument.count,
                    sum=instrument.sum,
                    min=instrument.min,
                    max=instrument.max,
                    buckets=[
                        [bound, count]
                        for bound, count in zip(
                            list(instrument.bounds) + [None], instrument.counts
                        )
                    ],
                )
            records.append(record)
        return records

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, deterministically ordered."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self.snapshot()
        )

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(text.splitlines())

    def render_scoreboard(self, title: str = "metrics") -> str:
        """A human-readable text summary of every series."""
        lines = [f"== {title} =="]
        current_kind = None
        # Group by kind so each section header appears once.
        ordered = sorted(
            self.snapshot(), key=lambda r: (r["kind"], r["name"], sorted(r["labels"].items()))
        )
        for record in ordered:
            if record["kind"] != current_kind:
                current_kind = record["kind"]
                lines.append(f"-- {current_kind}s --")
            label_text = "".join(
                f" {key}={value}" for key, value in sorted(record["labels"].items())
            )
            if record["kind"] == "histogram":
                count = record["count"]
                if count:
                    mean = record["sum"] / count
                    summary = (
                        f"count={count} mean={mean:.2f} "
                        f"min={record['min']:.2f} max={record['max']:.2f}"
                    )
                else:
                    summary = "count=0"
                lines.append(f"  {record['name']}{label_text}: {summary}")
            else:
                value = record["value"]
                rendered = f"{value:.2f}" if isinstance(value, float) else str(value)
                lines.append(f"  {record['name']}{label_text}: {rendered}")
        if current_kind is None:
            lines.append("  (no metrics recorded)")
        return "\n".join(lines)
