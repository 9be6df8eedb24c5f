"""Inquiry hopping-sequence structure and transmit-schedule arithmetic.

The paper's experiments depend on the *structure* of the Bluetooth 1.1
inquiry procedure, all of which is implemented here:

* 32 dedicated inquiry frequencies drawn from the 79 RF channels,
  common to all devices (derived from the GIAC LAP);
* the 32 frequencies split into **train A** (sequence positions 0-15)
  and **train B** (positions 16-31);
* a train pass covers its 16 frequencies in 10 ms (two ID packets per
  even slot, odd slots listening);
* the master repeats a train N_inquiry = 256 times (2.56 s) before
  switching trains.

The central service this module provides is *inverse lookup*: "when is
sequence position ``p`` next transmitted at or after tick ``t``?"  That
lets the rest of the simulator be event-driven (no per-slot loop) while
remaining tick-exact.

The gate-level PERM5 hop-selection kernel of the spec is intentionally
not reproduced; the train structure above is the abstraction level of
BlueHoc, which the paper itself used (see DESIGN.md §2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from repro.sim.hotpath import hot_path
from repro.sim.rng import RandomStream

from .constants import (
    GIAC_LAP,
    N_INQUIRY,
    NUM_INQUIRY_FREQUENCIES,
    NUM_RF_CHANNELS,
    TICKS_PER_TRAIN_DWELL,
    TICKS_PER_TRAIN_PASS,
    TRAIN_SIZE,
)


class Train(enum.IntEnum):
    """The two 16-frequency halves of the inquiry sequence."""

    A = 0
    B = 1


class TrainStrategy(enum.Enum):
    """Which trains a master uses during an inquiry window.

    * ``ALTERNATE`` — spec behaviour: 256 passes on one train, then
      switch (used by the Table-1 experiment's continuous inquiry).
    * ``A_ONLY`` / ``B_ONLY`` — single-train inquiry (the Figure-2
      simulation transmits "using only train A").
    """

    ALTERNATE = "alternate"
    A_ONLY = "a_only"
    B_ONLY = "b_only"


@lru_cache(maxsize=16)
def inquiry_sequence(lap: int = GIAC_LAP) -> tuple[int, ...]:
    """The 32-channel inquiry hopping sequence for an access-code LAP.

    All devices performing general inquiry share the GIAC, hence the
    same sequence; the result is deterministic in ``lap``.
    """
    if not 0 <= lap < (1 << 24):
        raise ValueError(f"LAP must be a 24-bit value, got {lap:#x}")
    stream = RandomStream(lap, "inquiry-sequence")
    channels = stream.sample(range(NUM_RF_CHANNELS), NUM_INQUIRY_FREQUENCIES)
    return tuple(channels)


#: Train membership by sequence position, precomputed (hot path).
_POSITION_TRAINS: tuple[Train, ...] = tuple(
    Train.A if p < TRAIN_SIZE else Train.B for p in range(NUM_INQUIRY_FREQUENCIES)
)

#: Pass-local transmit offset by sequence position, precomputed.
_TX_OFFSETS: tuple[int, ...] = tuple(
    ((p % TRAIN_SIZE) // 2) * 4 + (p % TRAIN_SIZE) % 2
    for p in range(NUM_INQUIRY_FREQUENCIES)
)


def train_of_position(position: int) -> Train:
    """Train membership of a sequence position (0-15 → A, 16-31 → B)."""
    if not 0 <= position < NUM_INQUIRY_FREQUENCIES:
        raise ValueError(f"position out of range: {position}")
    return _POSITION_TRAINS[position]


def tx_offset_of_position(position: int) -> int:
    """Tick offset of a train position within a 32-tick train pass.

    A pass interleaves transmit and listen slots: even slot *s* carries
    the two frequencies at train-local positions ``s`` and ``s + 1`` in
    its two half-slots, and the following odd slot listens for their
    responses.  Train-local position *p* is therefore transmitted at
    tick offset ``(p // 2) * 4 + (p % 2)``.

    >>> [tx_offset_of_position(p) for p in range(4)]
    [0, 1, 4, 5]
    """
    # (position % 32) % 16 == position % 16, so the table is exact for
    # out-of-range positions too.
    return _TX_OFFSETS[position % NUM_INQUIRY_FREQUENCIES]


@dataclass(frozen=True)
class Window:
    """One master inquiry window: ``[start, end)`` in ticks."""

    start: int
    end: int
    index: int

    def contains(self, tick: int) -> bool:
        """Whether ``tick`` falls inside the window."""
        return self.start <= tick < self.end


@dataclass(frozen=True)
class PeriodicWindows:
    """A periodic on/off schedule: a window of ``window_ticks`` opens
    every ``period_ticks`` starting at ``start``.

    ``window_ticks == period_ticks`` models a continuously active master
    (the Table-1 experiment); the Figure-2 master uses 1 s windows on a
    5 s period.  ``count`` limits the number of windows (None = forever).
    """

    start: int
    window_ticks: int
    period_ticks: int
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_ticks <= 0:
            raise ValueError(f"window_ticks must be positive: {self.window_ticks}")
        if self.period_ticks < self.window_ticks:
            raise ValueError(
                f"period {self.period_ticks} shorter than window {self.window_ticks}"
            )
        if self.count is not None and self.count <= 0:
            raise ValueError(f"count must be positive or None: {self.count}")

    @classmethod
    def continuous(cls, start: int = 0) -> "PeriodicWindows":
        """A single window covering all time from ``start`` on."""
        huge = 1 << 62
        return cls(start=start, window_ticks=huge, period_ticks=huge, count=1)

    def window(self, index: int) -> Window:
        """The ``index``-th window."""
        if index < 0 or (self.count is not None and index >= self.count):
            raise IndexError(f"window index out of range: {index}")
        w_start = self.start + index * self.period_ticks
        return Window(w_start, w_start + self.window_ticks, index)

    def first_index_ending_after(self, tick: int) -> Optional[int]:
        """Index of the first window whose end is after ``tick``."""
        if tick < self.start:
            return 0
        index = (tick - self.start) // self.period_ticks
        if self.count is not None and index >= self.count:
            return None
        if self.window(index).end <= tick:
            index += 1
        if self.count is not None and index >= self.count:
            return None
        return index

    def iter_windows(self, from_tick: int, before_tick: int) -> Iterator[Window]:
        """Yield windows overlapping ``[from_tick, before_tick)`` in order."""
        index = self.first_index_ending_after(from_tick)
        if index is None:
            return
        while self.count is None or index < self.count:
            window = self.window(index)
            if window.start >= before_tick:
                return
            yield window
            index += 1

    def containing(self, tick: int) -> Optional[Window]:
        """The window containing ``tick``, if any."""
        index = self.first_index_ending_after(tick)
        if index is None:
            return None
        window = self.window(index)
        return window if window.contains(tick) else None

    def is_active(self, tick: int) -> bool:
        """Whether some window contains ``tick``.

        Pure arithmetic (no :class:`Window` construction): this is the
        per-response master-side check, hit once per delivered FHS.
        """
        if tick < self.start:
            return False
        index, into_period = divmod(tick - self.start, self.period_ticks)
        if self.count is not None and index >= self.count:
            return False
        return into_period < self.window_ticks

    def next_active(self, tick: int) -> Optional[int]:
        """First tick >= ``tick`` inside some window (None = never).

        Pure arithmetic, like :meth:`is_active`.  The inquiry-scan swarm
        uses this to fast-forward rendezvous queries over master-idle
        air time in one jump instead of walking phase segments through
        it: no transmission can land outside the windows.
        """
        if tick < self.start:
            return self.start
        index, into_period = divmod(tick - self.start, self.period_ticks)
        if self.count is not None and index >= self.count:
            return None
        if into_period < self.window_ticks:
            return tick
        index += 1
        if self.count is not None and index >= self.count:
            return None
        return self.start + index * self.period_ticks


@dataclass
class InquiryTransmitSchedule:
    """The master's complete inquiry transmission plan.

    Combines the on/off window schedule with the train plan and answers
    the inverse-lookup query the scanners need.  Pass timing restarts at
    each window start (each window models a fresh HCI inquiry command).
    """

    windows: PeriodicWindows
    strategy: TrainStrategy = TrainStrategy.ALTERNATE
    start_train: Train = Train.A
    passes_per_dwell: int = N_INQUIRY
    lap: int = GIAC_LAP
    sequence: tuple[int, ...] = field(init=False)
    #: The timing fields :meth:`first_tx_run` reads, unpacked once:
    #: ``(start, window, period, count, alternate, train, dwell)`` with
    #: ``train`` the value of the first pass's train (the only train
    #: unless ALTERNATE) and ``dwell`` a dwell block's length in ticks.
    _plan: tuple[int, int, int, Optional[int], bool, int, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.passes_per_dwell <= 0:
            raise ValueError(f"passes_per_dwell must be positive: {self.passes_per_dwell}")
        self.sequence = inquiry_sequence(self.lap)
        windows = self.windows
        self._plan = (
            windows.start,
            windows.window_ticks,
            windows.period_ticks,
            windows.count,
            self.strategy is TrainStrategy.ALTERNATE,
            self.train_of_pass(0).value,
            self.passes_per_dwell * TICKS_PER_TRAIN_PASS,
        )

    # -- train plan --------------------------------------------------------

    def train_of_pass(self, pass_index: int) -> Train:
        """Which train the master transmits during pass ``pass_index``
        (counted from the start of the containing window)."""
        if self.strategy is TrainStrategy.A_ONLY:
            return Train.A
        if self.strategy is TrainStrategy.B_ONLY:
            return Train.B
        block = pass_index // self.passes_per_dwell
        return Train((self.start_train.value + block) % 2)

    def train_at(self, tick: int) -> Optional[Train]:
        """Train in use at ``tick`` (None when the master is idle)."""
        window = self.windows.containing(tick)
        if window is None:
            return None
        return self.train_of_pass((tick - window.start) // TICKS_PER_TRAIN_PASS)

    # -- inverse lookup ------------------------------------------------------

    @hot_path
    def next_tx_of_position(
        self, position: int, from_tick: int, before_tick: int
    ) -> Optional[int]:
        """First tick in ``[from_tick, before_tick)`` at which the master
        transmits an ID packet on sequence position ``position``.

        Returns None if the position is not transmitted in that span
        (master idle, wrong train, or span exhausted).
        """
        train_of_position(position)  # validates the position
        run = self.first_tx_run(position, from_tick, before_tick)
        return None if run is None else run[0]

    @hot_path
    def first_tx_run(
        self, position: int, from_tick: int, before_tick: int
    ) -> Optional[tuple[int, int]]:
        """The first transmission of ``position`` in ``[from_tick,
        before_tick)`` and the end of its run, as ``(tx, run_stop)``.

        Every ``tx + k * TICKS_PER_TRAIN_PASS < run_stop`` is also a
        transmission of ``position``: ``run_stop`` is the end of the
        window, or under ALTERNATE the end of ``tx``'s dwell block when
        that comes first.  It is not clipped to ``before_tick``.
        Returns None if the position is not transmitted in the span.

        Pure arithmetic on the window and train plan: one ``divmod`` to
        the window, a round-up to the position's next pass, at most one
        dwell-block jump, and on overrun the next window.
        """
        w_first, length, period, count, alternate, train, dwell = self._plan
        offset = _TX_OFFSETS[position]
        parity = _POSITION_TRAINS[position] ^ train
        if parity and not alternate:
            return None  # a single-train plan never sends the other train
        if from_tick < w_first:
            from_tick = w_first
        index, into = divmod(from_tick - w_first, period)
        while count is None or index < count:
            w_start = w_first + index * period
            if w_start >= before_tick:
                return None
            if into < length:
                # Pass timing restarts at each window start.
                ahead = into - offset
                tx = w_start + offset
                if ahead > 0:
                    tx += -(-ahead // TICKS_PER_TRAIN_PASS) * TICKS_PER_TRAIN_PASS
                w_end = w_start + length
                run_stop = w_end
                if alternate:
                    # Block b transmits train (start + b) % 2.
                    block = (tx - w_start) // dwell
                    if (block & 1) != parity:
                        block += 1
                        tx = w_start + block * dwell + offset
                    block_end = w_start + (block + 1) * dwell
                    if block_end < run_stop:
                        run_stop = block_end
                if tx < w_end:
                    return (tx, run_stop) if tx < before_tick else None
                if not into:
                    return None  # every window is alike: none sends it
            index += 1
            into = 0
        return None

    def is_listening(self, tick: int) -> bool:
        """Whether the master can receive an FHS response at ``tick``.

        The master listens during its inquiry windows; a response landing
        after the window closed is lost.
        """
        return self.windows.is_active(tick)


def continuous_inquiry(
    start_train: Train = Train.A,
    start: int = 0,
    strategy: TrainStrategy = TrainStrategy.ALTERNATE,
) -> InquiryTransmitSchedule:
    """A master permanently in inquiry (the Table-1 experiment setup)."""
    return InquiryTransmitSchedule(
        windows=PeriodicWindows.continuous(start),
        strategy=strategy,
        start_train=start_train,
    )


def periodic_inquiry(
    window_ticks: int,
    period_ticks: int,
    start: int = 0,
    strategy: TrainStrategy = TrainStrategy.ALTERNATE,
    start_train: Train = Train.A,
    count: Optional[int] = None,
) -> InquiryTransmitSchedule:
    """A master alternating inquiry and connection management.

    The Figure-2 simulation uses ``window_ticks = 1 s``,
    ``period_ticks = 5 s`` and ``strategy = A_ONLY``; the §5 policy uses
    a 3.84 s window on a 15.4 s period with alternating trains.
    """
    return InquiryTransmitSchedule(
        windows=PeriodicWindows(start, window_ticks, period_ticks, count),
        strategy=strategy,
        start_train=start_train,
    )


__all__ = [
    "Train",
    "TrainStrategy",
    "Window",
    "PeriodicWindows",
    "InquiryTransmitSchedule",
    "inquiry_sequence",
    "train_of_position",
    "tx_offset_of_position",
    "continuous_inquiry",
    "periodic_inquiry",
    "TICKS_PER_TRAIN_PASS",
    "TICKS_PER_TRAIN_DWELL",
]
