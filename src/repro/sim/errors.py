"""Exception hierarchy for the simulation kernel.

The kernel raises :class:`SchedulingError` for an event or a
``run_until`` target in the past.  It derives from
:class:`SimulationError`, so callers can catch kernel problems without
masking unrelated bugs.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""
