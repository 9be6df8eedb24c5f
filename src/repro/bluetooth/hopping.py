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

    @property
    def other(self) -> "Train":
        """The opposite train."""
        return Train.B if self is Train.A else Train.A


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

#: Cache-miss sentinel (None is a valid cached lookup result).
_MISS = object()

#: Upper bound on per-schedule ``next_tx_of_position`` memo entries.
#: At the bound, the oldest entry is evicted per insert (dicts iterate
#: in insertion order, so this is deterministic FIFO) — long runs keep
#: a full, useful cache instead of periodically dropping it wholesale.
_LOOKUP_CACHE_MAX = 65536


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

    @property
    def length(self) -> int:
        """Window length in ticks."""
        return self.end - self.start

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
    #: Inverse of ``sequence``: RF channel → sequence position.
    _position_of_channel: dict[int, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: Memo for :meth:`next_tx_of_position`.  Many scanners share one
    #: master schedule and issue identical (position, span) queries in
    #: the same slot, so repeats are common; the schedule's timing
    #: fields never change after construction, so entries never go
    #: stale.  Bounded by ``_LOOKUP_CACHE_MAX`` with FIFO eviction.
    _lookup_cache: dict[tuple[int, int, int], Optional[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.passes_per_dwell <= 0:
            raise ValueError(f"passes_per_dwell must be positive: {self.passes_per_dwell}")
        self.sequence = inquiry_sequence(self.lap)
        self._position_of_channel = {
            channel: position for position, channel in enumerate(self.sequence)
        }

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

    def _next_matching_pass(self, pass_index: int, train: Train) -> Optional[int]:
        """Smallest pass index >= ``pass_index`` transmitting ``train``."""
        if self.strategy is TrainStrategy.A_ONLY:
            return pass_index if train is Train.A else None
        if self.strategy is TrainStrategy.B_ONLY:
            return pass_index if train is Train.B else None
        if self.train_of_pass(pass_index) is train:
            return pass_index
        block = pass_index // self.passes_per_dwell
        return (block + 1) * self.passes_per_dwell

    # -- inverse lookup ------------------------------------------------------

    @hot_path
    def next_tx_of_position(
        self, position: int, from_tick: int, before_tick: int
    ) -> Optional[int]:
        """First tick in ``[from_tick, before_tick)`` at which the master
        transmits an ID packet on sequence position ``position``.

        Returns None if the position is not transmitted in that span
        (master idle, wrong train, or span exhausted).  Results are
        memoized per schedule — the schedule's timing state is
        immutable after construction, so the arithmetic below is a pure
        function of the arguments.
        """
        key = (position, from_tick, before_tick)
        cache = self._lookup_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit  # type: ignore[return-value]
        if len(cache) >= _LOOKUP_CACHE_MAX:
            del cache[next(iter(cache))]  # lint: disable=DET003 -- insertion-ordered dict; FIFO eviction is deterministic
        result = self._compute_next_tx(position, from_tick, before_tick)
        cache[key] = result
        return result

    def _compute_next_tx(
        self, position: int, from_tick: int, before_tick: int
    ) -> Optional[int]:
        train = train_of_position(position)
        offset = _TX_OFFSETS[position]
        for window in self.windows.iter_windows(from_tick, before_tick):
            base = max(from_tick, window.start)
            # Smallest pass index whose tx of `position` is >= base.
            relative = base - window.start - offset
            pass_index = max(0, -(-relative // TICKS_PER_TRAIN_PASS))
            while True:
                matching = self._next_matching_pass(pass_index, train)
                if matching is None:
                    break
                tick = window.start + matching * TICKS_PER_TRAIN_PASS + offset
                if tick >= before_tick:
                    return None
                if tick >= window.end:
                    break  # spills past this window; try the next one
                if tick >= base:
                    return tick
                pass_index = matching + 1
        return None

    @hot_path
    def tx_ticks_of_position(
        self, position: int, from_tick: int, before_tick: int
    ) -> tuple[int, ...]:
        """Every tick in ``[from_tick, before_tick)`` at which the master
        transmits an ID packet on sequence position ``position``, in
        increasing order.

        One walk over the window/pass structure enumerates the whole
        span, so callers that need many rendezvous points (the batched
        swarm engine precomputes per-position timetables and answers
        individual queries by bisection) pay the walk once instead of
        once per query.  ``tx_ticks_of_position(p, a, b)[0]`` always
        equals ``next_tx_of_position(p, a, b)`` when the result is
        non-empty.
        """
        train = train_of_position(position)
        offset = _TX_OFFSETS[position]
        # Matching passes come in runs: every pass under a single-train
        # strategy, whole dwell blocks under ALTERNATE.  Each run is an
        # arithmetic progression of ticks, emitted as one range() extend
        # instead of a per-pass loop.
        single_train = self.strategy is not TrainStrategy.ALTERNATE
        dwell = self.passes_per_dwell
        ticks: list[int] = []
        for window in self.windows.iter_windows(from_tick, before_tick):
            w_start = window.start
            base = max(from_tick, w_start)
            relative = base - w_start - offset
            pass_index = max(0, -(-relative // TICKS_PER_TRAIN_PASS))
            stop = window.end if window.end < before_tick else before_tick
            while True:
                matching = self._next_matching_pass(pass_index, train)
                if matching is None:
                    break
                first = w_start + matching * TICKS_PER_TRAIN_PASS + offset
                if first >= stop:
                    break
                if single_train:
                    run_stop = stop
                else:
                    block_end = (matching // dwell + 1) * dwell
                    run_stop = w_start + block_end * TICKS_PER_TRAIN_PASS + offset
                    if run_stop > stop:
                        run_stop = stop
                ticks.extend(range(first, run_stop, TICKS_PER_TRAIN_PASS))
                if run_stop >= stop:
                    break
                pass_index = (run_stop - w_start - offset) // TICKS_PER_TRAIN_PASS
        return tuple(ticks)

    def next_tx_of_channel(
        self, channel: int, from_tick: int, before_tick: int
    ) -> Optional[int]:
        """Like :meth:`next_tx_of_position` but keyed by RF channel."""
        position = self._position_of_channel.get(channel)
        if position is None:
            raise ValueError(f"channel {channel} not in inquiry sequence")
        return self.next_tx_of_position(position, from_tick, before_tick)

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
