"""Benchmark `bips-e2e`: the full BIPS system under walking users.

The paper publishes no end-to-end table; this bench records the numbers
its §2/§5 design implies and guards them as the reproduction's own
reference:

* detection latency bounded by about one operational cycle (15.4 s);
* tracking accuracy well above chance at room granularity;
* LAN load: presence *deltas* only — a handful of messages per
  user-minute, which is the point of the delta-reporting design.
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.e2e import E2EConfig, run_e2e


def _run_full():
    result = run_e2e(E2EConfig(user_count=8, duration_seconds=600.0))
    save_result("bips_end_to_end", result.render())
    return result


def test_end_to_end_tracking(benchmark):
    result = benchmark.pedantic(_run_full, rounds=1, iterations=1)
    report = result.report

    # The system tracks everyone who walked.
    assert len(report.users) == 8

    # Room-granule accuracy: the DB matches ground truth most of the time.
    assert report.mean_accuracy > 0.75

    # Detection latency: bounded by ~one cycle (+ stagger slack).
    latency = report.mean_detection_latency_seconds
    assert latency is not None
    assert latency < 15.4 * 1.5

    # Nearly all room transitions are noticed.
    detection_rates = [u.detection_rate for u in report.users]
    assert sum(detection_rates) / len(detection_rates) > 0.8

    # Delta reporting keeps the LAN quiet: a few updates per user-minute.
    assert 0.2 <= result.updates_per_user_minute <= 6.0
    assert result.lan_dropped == 0

    # The query path works end to end after tracking has settled.
    assert result.queries_ok >= result.queries_total * 0.5
