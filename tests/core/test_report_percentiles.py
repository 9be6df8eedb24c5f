"""Tests for tracking-report latency distributions and package exports."""

from __future__ import annotations

import repro
from repro.core.simulation import TrackingReport, UserTrackingReport


def make_user(userid: str, latencies: tuple[float, ...]) -> UserTrackingReport:
    return UserTrackingReport(
        userid=userid,
        accuracy=0.9,
        transitions=len(latencies),
        detected_transitions=len(latencies),
        mean_detection_latency_seconds=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        detection_latencies_seconds=latencies,
    )


class TestLatencyDistribution:
    def test_all_latencies_pooled(self):
        report = TrackingReport(
            users=(make_user("a", (1.0, 3.0)), make_user("b", (2.0,))),
            horizon_seconds=100.0,
        )
        assert sorted(report.all_detection_latencies_seconds) == [1.0, 2.0, 3.0]

    def test_empty_report_defaults(self):
        report = TrackingReport(users=(), horizon_seconds=10.0)
        assert report.mean_accuracy == 1.0
        assert report.mean_detection_latency_seconds is None


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        from repro import core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_bluetooth_exports_resolve(self):
        from repro import bluetooth

        for name in bluetooth.__all__:
            assert getattr(bluetooth, name) is not None

    def test_experiments_exports_resolve(self):
        from repro import experiments

        for name in experiments.__all__:
            assert getattr(experiments, name) is not None
