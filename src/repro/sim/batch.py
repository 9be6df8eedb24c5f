"""The engine name benchmark workers report.

The inquiry-scan swarm (:class:`~repro.bluetooth.swarm.InquiryScanSwarm`)
is the only inquiry/scan engine, so the name is fixed.
"""

from __future__ import annotations


def resolve_engine() -> str:
    """Always ``"batched"``; kept because benchmark workers report it."""
    return "batched"
