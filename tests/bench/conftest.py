"""Shared fixtures for the bench harness tests."""

from __future__ import annotations

import pytest


@pytest.fixture
def ticking_timer():
    """A clock that advances 0.25 s per read.

    Every region the harness times then lasts exactly 0.25 s, however
    fast or busy the host is, so timing verdicts are deterministic.
    """
    now = [0.0]

    def timer() -> float:
        now[0] += 0.25
        return now[0]

    return timer
