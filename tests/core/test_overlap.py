"""Tests for the coverage-overlap stress model."""

from __future__ import annotations

import pytest

from tests.layouts import linear_wing
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation


def run_overlap_sim(fraction: float, seed: int = 55):
    sim = BIPSSimulation(
        plan=linear_wing(3),
        config=BIPSConfig(seed=seed, coverage_overlap_fraction=fraction),
    )
    sim.add_user("u-a", "A")
    sim.login("u-a")
    sim.follow_route("u-a", ["wing-1", "wing-2", "wing-1"])
    sim.run(until_seconds=600.0)
    return sim


class TestOverlap:
    def test_zero_overlap_creates_no_spill_scanners(self):
        # One scanner per room visit, and no spill scanner beside them.
        sim = run_overlap_sim(0.0)
        user = sim.user("u-a")
        assert len(user.scanners) == len(user.timeline.visits)

    def test_overlap_creates_spill_sessions(self):
        sim = run_overlap_sim(0.3)
        user = sim.user("u-a")
        assert len(user.scanners) > len(user.timeline.visits)

    def test_overlap_triggers_invalidation_machinery(self):
        baseline = run_overlap_sim(0.0)
        stressed = run_overlap_sim(0.3)
        assert stressed.server.invalidations_sent >= baseline.server.invalidations_sent

    def test_tracking_survives_overlap(self):
        sim = run_overlap_sim(0.3)
        report = sim.tracking_report()
        # Double-claiming degrades accuracy but must not break tracking.
        assert report.users[0].accuracy > 0.4
        assert report.users[0].detection_rate > 0.5

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            BIPSConfig(coverage_overlap_fraction=0.9)
        with pytest.raises(ValueError):
            BIPSConfig(coverage_overlap_fraction=-0.1)

    def test_db_flapping_bounded(self):
        """The DB may flap while a device is double-claimed, but every
        flap is followed by a correction (last honest presence wins)."""
        sim = run_overlap_sim(0.25, seed=56)
        device = sim.user("u-a").device.address
        history = sim.server.location_db.history_of(device)
        rooms = [event.room_id for event in history if event.room_id is not None]
        true_rooms = {"wing-1", "wing-2"}
        # All claims are plausible rooms (the spill only reaches
        # neighbours of the true room).
        assert set(rooms) <= true_rooms | {"wing-0"}
