"""Exception hierarchy for the simulation kernel.

Every error raised by :mod:`repro.sim` derives from :class:`SimulationError`
so callers can catch kernel problems without masking unrelated bugs.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class DeadlockError(SimulationError):
    """``run_until`` was asked to reach a time but the event heap drained.

    This is only an error when the caller explicitly demands progress via
    ``require_events=True``; normally an empty heap simply fast-forwards
    the clock.
    """
