"""Simulated-time arithmetic.

All simulated time in this project is an integer number of *ticks*, where
one tick is a Bluetooth half-slot: 312.5 microseconds.  Using integers
keeps event ordering exact (no floating-point drift over millions of
slots) and makes slot/train arithmetic trivial.

The helpers here convert between ticks and human units.  They are the
single authority for the conversion factor; nothing else in the code
base hard-codes 312.5 µs.
"""

from __future__ import annotations

#: Number of ticks per simulated second.  One tick is 312.5 µs, the
#: period of the Bluetooth native clock (CLKN runs at 3.2 kHz).
TICKS_PER_SECOND = 3200

#: Duration of one tick in seconds.
TICK_SECONDS = 1.0 / TICKS_PER_SECOND

#: Duration of one tick in microseconds (312.5 µs).
TICK_MICROSECONDS = 312.5

#: Ticks per Bluetooth slot (625 µs).
TICKS_PER_SLOT = 2


def ticks_from_seconds(seconds: float) -> int:
    """Convert ``seconds`` to ticks, rounding to the nearest tick.

    >>> ticks_from_seconds(1.28)
    4096
    >>> ticks_from_seconds(0.01125)  # 11.25 ms scan window
    36
    """
    return round(seconds * TICKS_PER_SECOND)


def seconds_from_ticks(ticks: int) -> float:
    """Convert ``ticks`` to seconds.

    >>> seconds_from_ticks(4096)
    1.28
    """
    return ticks / TICKS_PER_SECOND


def ticks_from_milliseconds(milliseconds: float) -> int:
    """Convert ``milliseconds`` to ticks, rounding to the nearest tick."""
    return round(milliseconds * TICKS_PER_SECOND / 1000.0)


class SimClock:
    """A monotonically advancing simulated clock measured in ticks.

    The kernel owns one instance and advances it as events fire; other
    components hold a reference and read :attr:`now`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before tick 0, got {start}")
        self._now = start

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return seconds_from_ticks(self._now)

    def advance_to(self, tick: int) -> None:
        """Move the clock forward to ``tick``.

        Raises:
            ValueError: if ``tick`` is in the past; simulated time never
                moves backwards.
        """
        if tick < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={tick}"
            )
        self._now = tick

    def __repr__(self) -> str:
        return f"SimClock(now={self._now} ticks = {self.now_seconds:.6f}s)"
