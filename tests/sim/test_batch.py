"""Tests for the engine name benchmark workers report."""

from __future__ import annotations

from repro.sim.batch import resolve_engine


class TestResolveEngine:
    def test_always_batched(self):
        assert resolve_engine() == "batched"
