"""Struct-of-arrays state store for batched device simulation.

One Python object per simulated device and one kernel event per device
transition make the per-event constant — attribute chases, enum
dispatch, an :class:`~repro.sim.kernel.EventHandle` per transition —
dominate a run.  The batch store replaces both:

* :class:`BatchStore` holds device state as parallel signed 64-bit
  columns (``array('q')``), so one device is a row index and a state
  read is a C-level array load.  NumPy is deliberately not required:
  the container image is stdlib-only, and ``array`` columns expose the
  same buffer protocol (:meth:`BatchStore.view`) for a future NumPy or
  kernel-offload backend without changing any caller.
* A due-tick index groups rows by the tick at which they next act, so
  one claim (:meth:`BatchStore.advance`) hands the owner every row due
  at that tick instead of N per-device callbacks.  The owner decides
  when a tick is processed; the swarm does it from its own timeline.

Its one user is the inquiry-scan state machine,
:class:`~repro.bluetooth.swarm.InquiryScanSwarm`.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .hotpath import hot_path

#: Shared empty result for ticks with no due rows (no allocation).
_NO_ROWS: tuple[int, ...] = ()


def resolve_engine() -> str:
    """Always ``"batched"``; kept because benchmark workers report it."""
    return "batched"


class BatchStore:
    """Parallel integer columns plus a due-tick index.

    Columns are signed 64-bit (``array('q')``): wide enough for ticks,
    28-bit Bluetooth clocks, and counters, with ``-1`` available as a
    "not yet" sentinel.  Rows are append-only — a simulated device never
    leaves the store; lifecycle is a state column, which keeps row
    indices stable for the owner's parallel Python-object lists (RNG
    streams, addresses, names).

    The due-tick index is the batched counterpart of per-device pending
    events: :meth:`push_due` files a row under the tick at which it next
    acts, and :meth:`advance` claims every row due at a tick in FIFO
    order, so same-tick rows act in the order they were filed.
    """

    __slots__ = ("_names", "_columns", "size", "_due")

    def __init__(self, *names: str) -> None:
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        if not names:
            raise ValueError("a BatchStore needs at least one column")
        self._names = names
        self._columns: dict[str, array[int]] = {name: array("q") for name in names}
        self.size = 0
        self._due: dict[int, list[int]] = {}

    # -- columns ---------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        """The column names, in declaration order."""
        return self._names

    def column(self, name: str) -> "array[int]":
        """The named column (the live array, not a copy)."""
        return self._columns[name]

    def view(self, name: str) -> memoryview:
        """A read-only buffer view of a column (NumPy/kernel interop)."""
        return memoryview(self._columns[name]).toreadonly()

    def add_row(self, **values: int) -> int:
        """Append a row; unnamed columns default to 0.  Returns its index."""
        for name in values:
            if name not in self._columns:
                raise KeyError(f"unknown column {name!r}; have {self._names}")
        row = self.size
        for name in self._names:
            self._columns[name].append(values.get(name, 0))
        self.size = row + 1
        return row

    def row(self, index: int) -> dict[str, int]:
        """One row as a dict (tests and debugging; not a hot path)."""
        if not 0 <= index < self.size:
            raise IndexError(f"row {index} out of range (size {self.size})")
        return {name: self._columns[name][index] for name in self._names}

    # -- due-tick index --------------------------------------------------

    def push_due(self, tick: int, row: int) -> bool:
        """File ``row`` as due at ``tick``.

        Returns True when ``tick`` had no bucket yet — the caller owns
        scheduling exactly one processing of each bucket.
        """
        bucket = self._due.get(tick)
        if bucket is None:
            self._due[tick] = [row]
            return True
        bucket.append(row)
        return False

    def due_count(self, tick: int) -> int:
        """Number of rows currently filed under ``tick``."""
        bucket = self._due.get(tick)
        return 0 if bucket is None else len(bucket)

    @property
    def due_index(self) -> dict[int, list[int]]:
        """The live ``tick -> rows`` index (the dict itself, not a copy).

        For an owner's hot loop that files many rows under one tick: it
        may append to a bucket it got from here, or open one exactly as
        :meth:`push_due` would; buckets leave only through
        :meth:`advance`.
        """
        return self._due

    @property
    def pending_ticks(self) -> int:
        """Number of distinct ticks with at least one due row."""
        return len(self._due)

    @hot_path
    def advance(self, tick: int) -> Sequence[int]:
        """Claim every row due at ``tick``, in arrival (FIFO) order.

        The bucket is removed from the index: rows filed for the same
        tick *during* processing open a fresh bucket, which its owner
        processes as a separate, later unit (the swarm gives it a fresh
        ``seq`` on its timeline), so a same-tick continuation runs after
        everything already queued for that tick.
        """
        bucket = self._due.pop(tick, None)
        if bucket is None:
            return _NO_ROWS
        return bucket
