"""Unit tests for the metrics registry and its instruments."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative_increment(self):
        counter = Counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_zero_increment_allowed(self):
        counter = Counter("c")
        counter.inc(0)
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec(5)
        assert gauge.value == 8

    def test_can_go_negative(self):
        gauge = Gauge("g")
        gauge.dec(2)
        assert gauge.value == -2


class TestHistogram:
    def test_counts_land_in_first_matching_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # (<=1, <=2, <=4, +inf)
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.sum == pytest.approx(106.0)

    def test_rejects_unsorted_or_duplicate_buckets(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("h", buckets=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        same = registry.counter("msgs", type="hello")
        other = registry.counter("msgs", type="update")
        assert same is not other
        same.inc()
        assert registry.counter("msgs", type="hello").value == 1
        assert registry.counter("msgs", type="update").value == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(MetricError):
            registry.gauge("n")
        with pytest.raises(MetricError):
            registry.histogram("n")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        # Re-registering without buckets reuses the existing series.
        assert registry.histogram("h").bounds == (1.0, 2.0)
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_empty_name_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("")

    def test_default_buckets_used_when_unspecified(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").bounds == DEFAULT_BUCKETS

    def test_snapshot_is_isolated(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        snap = registry.snapshot()
        counter.inc(10)
        assert snap[0]["value"] == 1
        # Mutating the snapshot does not touch the registry either.
        snap[0]["value"] = 999
        assert registry.counter("c").value == 11

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(3.0)
        by_name = {record["name"]: record for record in registry.snapshot()}
        assert by_name["c"] == {
            "kind": "counter", "name": "c", "labels": {}, "value": 2,
        }
        assert by_name["g"]["kind"] == "gauge"
        assert by_name["g"]["value"] == 1.5
        hist = by_name["h"]
        assert hist["kind"] == "histogram"
        assert hist["count"] == 1
        # Final bucket bound is null (the +inf overflow).
        assert hist["buckets"] == [[1.0, 0], [None, 1]]

    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", room="lab-1").inc(7)
        registry.gauge("g").set(-2)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = registry.to_jsonl()
        for line in text.splitlines():
            json.loads(line)  # every line is standalone JSON
        assert [json.loads(line) for line in text.splitlines()] == registry.snapshot()

    def test_write_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(4)
        path = tmp_path / "metrics.jsonl"
        written = registry.write_jsonl(str(path))
        assert written == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == registry.snapshot()

    def test_jsonl_is_deterministic(self):
        def build() -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("z.last").inc(3)
            registry.counter("a.first", kind="x").inc(1)
            registry.histogram("h", buckets=(1.0, 5.0)).observe(2.0)
            registry.gauge("g").set(9)
            return registry

        assert build().to_jsonl() == build().to_jsonl()

    def test_scoreboard_lists_every_kind_once(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.counter("c2").inc()
        board = registry.render_scoreboard("test board")
        assert board.splitlines()[0] == "== test board =="
        assert board.count("-- counters --") == 1
        assert board.count("-- gauges --") == 1
        assert board.count("-- histograms --") == 1
        assert "c2: 1" in board

    def test_scoreboard_empty_registry(self):
        board = MetricsRegistry().render_scoreboard()
        assert "(no metrics recorded)" in board
