"""Discrete-event simulation kernel used by every substrate.

Public surface:

* :class:`Kernel` — the event loop (integer-tick simulated time)
* :class:`RandomStream` — named, seed-derived random streams
* tick/second conversion helpers (one tick = 312.5 µs)
"""

from .clock import (
    TICK_MICROSECONDS,
    TICK_SECONDS,
    TICKS_PER_SECOND,
    TICKS_PER_SLOT,
    SimClock,
    seconds_from_ticks,
    ticks_from_milliseconds,
    ticks_from_seconds,
)
from .errors import SchedulingError, SimulationError
from .kernel import EventHandle, Kernel
from .rng import RandomStream, derive_seed

__all__ = [
    "TICK_MICROSECONDS",
    "TICK_SECONDS",
    "TICKS_PER_SECOND",
    "TICKS_PER_SLOT",
    "SimClock",
    "seconds_from_ticks",
    "ticks_from_milliseconds",
    "ticks_from_seconds",
    "SchedulingError",
    "SimulationError",
    "EventHandle",
    "Kernel",
    "RandomStream",
    "derive_seed",
]
