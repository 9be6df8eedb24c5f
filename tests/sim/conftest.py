"""Sim-layer fixtures.

The ``kernel`` fixture here overrides the repo-root one so every
kernel test in this directory carries the name of the queue it runs
on: ``heap``, the binary heap that is the kernel's only event queue.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import Kernel


@pytest.fixture(params=["heap"])
def kernel(request) -> Kernel:
    """A fresh kernel; the test id names its event queue."""
    return Kernel()
