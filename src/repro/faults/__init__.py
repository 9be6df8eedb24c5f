"""Deterministic fault injection and recovery for the BIPS pipeline.

The robustness layer of the reproduction: seed-derived fault plans
(drop/delay/duplicate/reorder LAN messages, workstation crash + restart,
central-server brownouts) that enter through declared injection points —
``LANTransport(fault_injector=...)``, ``Workstation.set_failed``,
``BIPSServer.set_brownout`` — plus the matching recovery mechanics
(bounded retry with exponential backoff, delivery timeouts, workstation
re-registration, location-database staleness marking).  Pushes from
workstations take the reliable path exactly when a fault plan is active.

See ``docs/fault-injection.md`` for profiles, seeds, and the invariants
the chaos suite asserts.
"""

from __future__ import annotations

from .injector import NO_FAULT, FaultDecision, LANFaultInjector
from .plan import FaultPlan, Window, in_windows
from .profiles import PROFILES, FaultProfile, profile_named, profile_names

__all__ = [
    "FaultDecision",
    "FaultPlan",
    "FaultProfile",
    "LANFaultInjector",
    "NO_FAULT",
    "PROFILES",
    "Window",
    "in_windows",
    "profile_named",
    "profile_names",
]
