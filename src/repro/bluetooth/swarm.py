"""Inquiry scan: every scanning slave of one piconet, advanced in batch.

Implements the Bluetooth 1.1 inquiry-scan / inquiry-response protocol
the paper describes in §3.1:

1. The slave periodically opens a scan window (default 11.25 ms every
   1.28 s) and listens on a single inquiry frequency; the frequency's
   phase advances every 1.28 s, driven by the slave's native clock.
2. On hearing an ID packet it does **not** answer immediately: it draws
   a random backoff of 0..1023 slots (collision avoidance), sleeps,
   then listens again.
3. On the next ID packet heard it transmits an FHS response exactly one
   slot (625 µs) later on the paired response channel.
4. It then keeps answering (or backs off again, or stops) according to
   :class:`~repro.bluetooth.scan.ResponseMode`; a quiet gap longer than
   inqrespTO drops it back to plain scan.

The state machine is event-driven but tick-exact: a slave asks the
master's :class:`~repro.bluetooth.hopping.InquiryTransmitSchedule` when
its current listening frequency is next on the air, and sleeps until
then.

:class:`InquiryScanSwarm` keeps all slaves of one piconet as rows of a
:class:`~repro.sim.batch.BatchStore` — clock offsets, hop phases, scan
anchors, lifecycle state and counters are parallel ``array('q')``
columns — and files each row under the tick at which it next acts.  One
handle-free kernel event per distinct due tick then advances every row
due at that tick (:meth:`InquiryScanSwarm._on_advance`), and all FHS
responses produced within one advance are announced to the radio
channel in a single batched call.  A lone slave is a one-row swarm.

Ordering guarantees (pinned by the golden artefact digests):

* every slave draws only from its own :class:`RandomStream` (one
  backoff draw per backoff), so one slave's draws never shift another's;
* rows due at the same tick act in the order they were filed (FIFO);
* within one master schedule, ID transmissions occupy ticks congruent
  to {0, 1} (mod 4) past the window start while FHS deliveries occupy
  {2, 3}, so hear/respond steps never share a tick with channel
  deliveries — the batched announce at the end of an advance cannot
  reorder anything observable (see docs/performance.md).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

from repro.radio.channel import ResponseChannel
from repro.sim.batch import BatchStore
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

from .address import BDAddr
from .btclock import CLKN_WRAP, BluetoothClock
from .constants import (
    INQUIRY_RESPONSE_DELAY_TICKS,
    NUM_INQUIRY_FREQUENCIES,
    SCAN_FREQUENCY_CHANGE_TICKS,
    TICKS_PER_SLOT,
    TRAIN_SIZE,
)
from .hopping import InquiryTransmitSchedule
from .packets import FHSPacket
from .scan import (
    BackoffReentry,
    PhaseMode,
    ResponseMode,
    ScanConfig,
    ScannerState,
    ScannerStats,
)

#: Row lifecycle codes (the ``state`` column), indices into
#: ``_STATE_NAMES``.
_IDLE = 0
_SEEKING = 1
_BACKOFF = 2
_RESPONDING = 3
_DONE = 4
_EXHAUSTED = 5
_STOPPED = 6

_STATE_NAMES: tuple[ScannerState, ...] = (
    ScannerState.IDLE,
    ScannerState.SEEKING,
    ScannerState.BACKOFF,
    ScannerState.RESPONDING,
    ScannerState.DONE,
    ScannerState.EXHAUSTED,
    ScannerState.STOPPED,
)

#: Pending-action codes (the ``action`` column): what a row does when
#: its due tick arrives.
_ACT_SEEK = 1  # look for the next ID the row can hear
_ACT_HEAR = 2  # first ID heard: start a random backoff
_ACT_BACKOFF_END = 3  # backoff over: listen for the ID to answer
_ACT_RESPOND = 4  # answer the ID heard now with an FHS

#: Phase-mode codes (precomputed from the shared ScanConfig).
_PHASE_FIXED = 0
_PHASE_SEQUENCE = 1
_PHASE_TRAIN_LOCKED = 2

#: Response-mode codes.
_MODE_CONTINUOUS = 0
_MODE_BACKOFF_EACH = 1
_MODE_SINGLE = 2

_PHASE_CODES: Mapping[PhaseMode, int] = MappingProxyType(
    {
        PhaseMode.FIXED: _PHASE_FIXED,
        PhaseMode.SEQUENCE: _PHASE_SEQUENCE,
        PhaseMode.TRAIN_LOCKED: _PHASE_TRAIN_LOCKED,
    }
)

_MODE_CODES: Mapping[ResponseMode, int] = MappingProxyType(
    {
        ResponseMode.CONTINUOUS: _MODE_CONTINUOUS,
        ResponseMode.BACKOFF_EACH: _MODE_BACKOFF_EACH,
        ResponseMode.SINGLE: _MODE_SINGLE,
    }
)

#: Longest rendezvous segment the timetable cache serves.  One phase
#: segment is at most ``SCAN_FREQUENCY_CHANGE_TICKS`` long, so every
#: phase-bounded segment qualifies; only FIXED-phase segments (bounded
#: by the scan window alone) can exceed it and fall back to a direct
#: schedule walk.
_TX_SEGMENT_MAX = SCAN_FREQUENCY_CHANGE_TICKS

#: Span of each cached per-position transmit timetable.  Tables are
#: aligned to absolute ``[block * span, (block + 1) * span)`` blocks so
#: slaves querying the same position at scattered ticks (seek re-arms
#: are uniformly spread across a piconet) share tables regardless of
#: query order; a rolling start would be invalidated by every query
#: behind it.  Twice the segment bound, so one segment touches at most
#: two blocks.  (Bounding the span also keeps the underlying schedule
#: walk finite for never-transmitted positions.)
_TX_TABLE_SPAN = 2 * SCAN_FREQUENCY_CHANGE_TICKS


class InquiryScanSwarm:
    """All inquiry-scanning slaves of one piconet, advanced in batch.

    One swarm serves one master schedule/channel pair and one shared
    :class:`ScanConfig`; per-slave variation (clock offset, base phase,
    window anchor, horizon, RNG stream) lives in the store columns.
    """

    def __init__(
        self,
        kernel: Kernel,
        schedule: InquiryTransmitSchedule,
        channel: ResponseChannel,
        config: Optional[ScanConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
        name: str = "swarm",
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self.channel = channel
        self.config = config if config is not None else ScanConfig()
        self.name = name
        self.store = BatchStore(
            "offset",  # device clock offset (CLKN = tick + offset mod 2^28)
            "base",  # base sequence position (hop-frequency state)
            "anchor",  # scan-window anchor, already mod interval
            "horizon",  # scanning stops at this tick
            "state",  # lifecycle (power mode) code
            "action",  # pending-action code for the next due tick
            "ids_heard",
            "backoffs",
            "responses",
            "first_heard",  # -1 until the first ID is heard
            "first_response",  # -1 until the first FHS is sent
        )
        # Column aliases for the hot loop (array objects are stable).
        self._offset = self.store.column("offset")
        self._base = self.store.column("base")
        self._anchor = self.store.column("anchor")
        self._horizon = self.store.column("horizon")
        self._state = self.store.column("state")
        self._action = self.store.column("action")
        self._ids_heard = self.store.column("ids_heard")
        self._backoffs = self.store.column("backoffs")
        self._responses = self.store.column("responses")
        self._first_heard = self.store.column("first_heard")
        self._first_response = self.store.column("first_response")
        # Per-row Python objects the columns cannot hold.
        self._addresses: list[BDAddr] = []
        self._rngs: list[RandomStream] = []
        self._names: list[str] = []
        self._response_ticks: list[list[int]] = []
        # Shared-config scalars, predigested so the hot loop does no
        # enum dispatch or dataclass attribute chasing.
        cfg = self.config
        self._window_ticks = cfg.window_ticks
        self._interval_ticks = cfg.interval_ticks
        self._continuous = cfg.is_continuous
        self._phase_code = _PHASE_CODES[cfg.phase_mode]
        self._reentry_immediate = cfg.backoff_reentry is BackoffReentry.IMMEDIATE
        self._backoff_max = cfg.backoff_max_slots
        self._response_timeout = cfg.response_timeout_ticks
        self._mode_code = _MODE_CODES[cfg.response_mode]
        self._sequence = schedule.sequence
        self._label = f"swarm:{name}"
        # Reusable same-advance FHS batch (flushed every advance).
        self._batch: list[FHSPacket] = []
        # Shared per-position transmit timetables: sorted tx ticks of
        # position p within one block-aligned span, answered by
        # bisection.  One schedule walk per refilled block replaces one
        # walk per rendezvous query, and every slave of the piconet
        # shares the tables (a bounded-query memo could not: its keys
        # embed each slave's own segment end).  Two slots per position
        # (flat, index 2p/2p+1) keep adjacent blocks live so stragglers
        # behind a block boundary don't evict the block everyone else is
        # using.  Entries never go stale: the schedule is immutable.
        self._tt_tables: list[tuple[int, ...]] = [()] * (2 * NUM_INQUIRY_FREQUENCIES)
        self._tt_blocks = [-1] * (2 * NUM_INQUIRY_FREQUENCIES)
        if metrics is not None:
            self._m_ids_heard = metrics.counter("bt.scan.ids_heard")
            self._m_backoffs = metrics.counter("bt.scan.backoffs")
            self._m_responses = metrics.counter("bt.scan.responses_sent")
            self._m_advances = metrics.counter("sim.batch.advances")
            self._m_steps = metrics.counter("sim.batch.slave_steps")
        else:
            self._m_ids_heard = None
            self._m_backoffs = None
            self._m_responses = None
            self._m_advances = None
            self._m_steps = None

    # -- population -------------------------------------------------------

    @property
    def slave_count(self) -> int:
        """Number of slaves (rows) ever added to this swarm."""
        return self.store.size

    def add_slave(
        self,
        address: BDAddr,
        rng: RandomStream,
        clock: Optional[BluetoothClock] = None,
        base_phase: int = 0,
        window_anchor: Optional[int] = None,
        horizon_tick: int = 1 << 62,
        name: str = "",
    ) -> "SwarmSlave":
        """Add one slave (an ``IDLE`` row) and return its handle.

        The clock defaults to offset 0 and the scan-window anchor to the
        clock offset; the row never hears anything at or past
        ``horizon_tick``.
        """
        if clock is None:
            clock = BluetoothClock()
        if not 0 <= base_phase < NUM_INQUIRY_FREQUENCIES:
            raise ValueError(f"base_phase out of range: {base_phase}")
        anchor = window_anchor if window_anchor is not None else clock.offset
        row = self.store.add_row(
            offset=clock.offset,
            base=base_phase,
            anchor=anchor % self._interval_ticks,
            horizon=horizon_tick,
            state=_IDLE,
            action=0,
            first_heard=-1,
            first_response=-1,
        )
        self._addresses.append(address)
        self._rngs.append(rng)
        self._names.append(name or str(address))
        self._response_ticks.append([])
        return SwarmSlave(self, row)

    # -- per-row control -----------------------------------------------------

    def start_row(self, row: int, at_tick: Optional[int] = None) -> None:
        """Begin scanning for one row (immediately, or at ``at_tick``)."""
        if self._state[row] != _IDLE:
            raise RuntimeError(
                f"slave {self._names[row]} already started "
                f"({_STATE_NAMES[self._state[row]].value})"
            )
        now = self.kernel.now
        begin = max(now, at_tick if at_tick is not None else now)
        self._state[row] = _SEEKING
        self._action[row] = _ACT_SEEK
        self._queue(begin, row)

    def stop_row(self, row: int) -> None:
        """Abort scanning for one row (left coverage / powered down).

        The row's pending due entry is left in place and skipped when it
        surfaces (a tombstone).
        """
        self._state[row] = _STOPPED

    def state_of(self, row: int) -> ScannerState:
        """The row's lifecycle state."""
        return _STATE_NAMES[self._state[row]]

    def stats_of(self, row: int) -> ScannerStats:
        """A copy of the row's counters."""
        first_heard = self._first_heard[row]
        first_response = self._first_response[row]
        return ScannerStats(
            ids_heard=self._ids_heard[row],
            backoffs=self._backoffs[row],
            responses=self._responses[row],
            first_heard_tick=None if first_heard < 0 else first_heard,
            first_response_tick=None if first_response < 0 else first_response,
            response_ticks=list(self._response_ticks[row]),
        )

    # -- frequency / window geometry -----------------------------------------

    def listen_position(self, row: int, tick: int) -> int:
        """Sequence position the row listens on at ``tick``.

        Integer-only form of ``BluetoothClock.scan_phase`` walked per
        the config's :class:`PhaseMode`.
        """
        clkn = (tick + self._offset[row]) % CLKN_WRAP
        step = clkn // SCAN_FREQUENCY_CHANGE_TICKS
        code = self._phase_code
        base = self._base[row]
        if code == _PHASE_FIXED:
            return base
        if code == _PHASE_SEQUENCE:
            return (base + step) % NUM_INQUIRY_FREQUENCIES
        # TRAIN_LOCKED: walk the 16 positions of the starting train.
        train_start = base - base % TRAIN_SIZE
        return train_start + (base % TRAIN_SIZE + step) % TRAIN_SIZE

    def _tx_table(self, position: int, block: int) -> tuple[int, ...]:
        """The master's tx ticks for ``position`` within timetable block
        ``block`` (``[block * span, (block + 1) * span)``), cached.

        Of the position's two slots, a miss refills the one holding the
        older block, keeping the most recent block resident for the
        rest of the piconet.
        """
        index = position + position
        blocks = self._tt_blocks
        if blocks[index] == block:
            return self._tt_tables[index]
        if blocks[index + 1] == block:
            return self._tt_tables[index + 1]
        if blocks[index] > blocks[index + 1]:
            index += 1
        start = block * _TX_TABLE_SPAN
        table = self.schedule.tx_ticks_of_position(
            position, start, start + _TX_TABLE_SPAN
        )
        blocks[index] = block
        self._tt_tables[index] = table
        return table

    def next_hear(
        self, row: int, from_tick: int, ignore_windows: bool = False
    ) -> Optional[int]:
        """First tick >= ``from_tick`` at which the row hears an ID.

        The inquiry-scan form of ``scan.next_listen_rendezvous``,
        clipped to the row's horizon: intersect the scan windows (unless
        ignored), the 1.28 s phase segments, and the master schedule.
        Master-idle stretches are skipped in one ``next_active`` jump
        instead of being walked segment by segment — no transmission
        can land outside the schedule's windows.
        """
        before = self._horizon[row]
        always = ignore_windows or self._continuous
        window_ticks = self._window_ticks
        interval = self._interval_ticks
        anchor = self._anchor[row]
        code = self._phase_code
        fixed = code == _PHASE_FIXED
        sequence = code == _PHASE_SEQUENCE
        offset = self._offset[row]
        base = self._base[row]
        train_start = base - base % TRAIN_SIZE
        base_in_train = base % TRAIN_SIZE
        next_active = self.schedule.windows.next_active
        lookup = self.schedule.next_tx_of_position
        tick = from_tick
        while tick < before:
            active = next_active(tick)
            if active is None:
                return None
            if active > tick:
                tick = active
                if tick >= before:
                    return None
            if always:
                limit = before
            else:
                index = (tick - anchor) // interval
                w_start = anchor + index * interval
                if w_start + window_ticks <= tick:
                    w_start += interval
                if w_start >= before:
                    return None
                if tick < w_start:
                    tick = w_start
                limit = w_start + window_ticks
                if limit > before:
                    limit = before
            if fixed:
                segment_end = limit
                position = base
            else:
                # Inline of listen_position(row, tick): one clkn
                # computation feeds both the segment end and the
                # position, saving a call in the hottest loop.
                clkn = (tick + offset) % CLKN_WRAP
                segment_end = (
                    tick
                    + SCAN_FREQUENCY_CHANGE_TICKS
                    - clkn % SCAN_FREQUENCY_CHANGE_TICKS
                )
                if segment_end > limit:
                    segment_end = limit
                step = clkn // SCAN_FREQUENCY_CHANGE_TICKS
                if sequence:
                    position = (base + step) % NUM_INQUIRY_FREQUENCIES
                else:  # TRAIN_LOCKED
                    position = train_start + (base_in_train + step) % TRAIN_SIZE
            if segment_end - tick <= _TX_SEGMENT_MAX:
                # Phase-bounded segment: answer from the position's
                # cached timetable.  Clipping the table to the row's
                # segment gives exactly the bounded first-tx lookup,
                # because a tx instant is independent of the cutoff.
                block = tick // _TX_TABLE_SPAN
                table = self._tx_table(position, block)
                index = bisect_left(table, tick)
                if index < len(table):
                    candidate = table[index]
                    if candidate < segment_end:
                        return candidate
                    # candidate >= segment_end: no tx in the segment.
                else:
                    # No tx in [tick, block end); the segment may spill
                    # into the next block (it is at most half a span
                    # long, so never further).
                    boundary = (block + 1) * _TX_TABLE_SPAN
                    if segment_end > boundary:
                        table = self._tx_table(position, block + 1)
                        if table and table[0] < segment_end:
                            return table[0]
            else:
                heard = lookup(position, tick, segment_end)
                if heard is not None:
                    return heard
            tick = segment_end
        return None

    # -- the batched state machine ----------------------------------------

    def _queue(self, tick: int, row: int) -> None:
        """File ``row`` for ``tick``; first filer posts the kernel event."""
        if self.store.push_due(tick, row):
            self.kernel.post_at(tick, self._on_advance, self._label)

    @hot_path
    def _on_advance(self) -> None:
        """Advance every row due now — the swarm's one kernel callback.

        Rows are processed in the order they were filed; FHS
        responses produced during the pass are
        collected and announced to the channel in one batched call at
        the end (safe: deliveries never share a tick with hear/respond
        steps — see the module docstring).
        """
        now = self.kernel.now
        rows = self.store.advance(now)
        state = self._state
        action = self._action
        batch = self._batch
        batch_tick = -1
        batch_channel = -1
        for row in rows:
            if state[row] == _STOPPED:
                continue  # tombstoned by stop_row; nothing pending
            act = action[row]
            if act == _ACT_RESPOND:
                tx_tick, rf_channel = self._step_respond(row, now)
                if batch_tick < 0:
                    batch_tick = tx_tick
                    batch_channel = rf_channel
                elif tx_tick != batch_tick or rf_channel != batch_channel:
                    # Distinct keys within one advance cannot happen for
                    # slaves of one master (same hear tick -> same
                    # position); handled anyway so the invariant is
                    # local, not load-bearing.
                    self.channel.schedule_fhs_batch(batch_tick, batch_channel, batch)
                    batch.clear()
                    batch_tick = tx_tick
                    batch_channel = rf_channel
            elif act == _ACT_HEAR:
                self._step_first_hear(row, now)
            elif act == _ACT_BACKOFF_END:
                self._step_after_backoff(row, now)
            else:  # _ACT_SEEK
                self._step_seek(row, now)
        if batch:
            self.channel.schedule_fhs_batch(batch_tick, batch_channel, batch)
            batch.clear()
        if self._m_advances is not None:
            self._m_advances.inc()
            self._m_steps.inc(len(rows))

    def _step_seek(self, row: int, now: int) -> None:
        """Schedule the row's next first hear, or exhaust it."""
        heard = self.next_hear(row, now)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return
        self._state[row] = _SEEKING
        self._action[row] = _ACT_HEAR
        self._queue(heard, row)

    def _step_first_hear(self, row: int, now: int) -> None:
        """Count a first hear and start the random backoff."""
        self._ids_heard[row] += 1
        if self._m_ids_heard is not None:
            self._m_ids_heard.inc()
        if self._first_heard[row] < 0:
            self._first_heard[row] = now
        self._begin_backoff(row, now)

    def _begin_backoff(self, row: int, now: int) -> None:
        """Draw a random backoff (the row's only draw) and sleep it out."""
        self._backoffs[row] += 1
        if self._m_backoffs is not None:
            self._m_backoffs.inc()
        backoff_ticks = self._rngs[row].backoff_slots(self._backoff_max) * TICKS_PER_SLOT
        self._state[row] = _BACKOFF
        self._action[row] = _ACT_BACKOFF_END
        self._queue(now + backoff_ticks, row)

    def _step_after_backoff(self, row: int, now: int) -> None:
        """Listen again after the backoff: respond, or revert on inqrespTO."""
        ignore_windows = self._reentry_immediate
        heard = self.next_hear(row, now, ignore_windows)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return
        # inqrespTO: the timeout only measures *listening* time, so it
        # applies when the slave listens continuously (a wait for the
        # slave's own next scan window is not air silence).  Expired
        # before any ID arrived: back to plain scan, and the eventual
        # hear counts as a first hear (fresh backoff).
        if (
            (ignore_windows or self._continuous)
            and heard - now > self._response_timeout
        ):
            self._state[row] = _SEEKING
            self._action[row] = _ACT_HEAR
            self._queue(heard, row)
            return
        self._state[row] = _RESPONDING
        self._action[row] = _ACT_RESPOND
        self._queue(heard, row)

    def _step_respond(self, row: int, now: int) -> tuple[int, int]:
        """Answer the ID heard now with an FHS one slot later.

        Returns ``(tx_tick, rf_channel)``; the caller batches the
        actual channel announcement across same-advance responders.
        """
        self._ids_heard[row] += 1
        if self._m_ids_heard is not None:
            self._m_ids_heard.inc()
        position = self.listen_position(row, now)
        rf_channel = self._sequence[position]
        tx_tick = now + INQUIRY_RESPONSE_DELAY_TICKS
        self._batch.append(
            FHSPacket(
                sender=self._addresses[row],
                clkn=(tx_tick + self._offset[row]) % CLKN_WRAP,
                channel=rf_channel,
                tx_tick=tx_tick,
            )
        )
        self._responses[row] += 1
        if self._m_responses is not None:
            self._m_responses.inc()
        self._response_ticks[row].append(tx_tick)
        if self._first_response[row] < 0:
            self._first_response[row] = tx_tick
        mode = self._mode_code
        if mode == _MODE_SINGLE:
            self._state[row] = _DONE
            return tx_tick, rf_channel
        if mode == _MODE_BACKOFF_EACH:
            self._begin_backoff(row, now)
            return tx_tick, rf_channel
        # CONTINUOUS: answer the next ID heard, no further backoff —
        # unless the air goes quiet past inqrespTO.
        heard = self.next_hear(row, now + 1)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return tx_tick, rf_channel
        if self._continuous and heard - now > self._response_timeout:
            self._state[row] = _SEEKING
            self._action[row] = _ACT_HEAR
            self._queue(heard, row)
            return tx_tick, rf_channel
        self._state[row] = _RESPONDING
        self._action[row] = _ACT_RESPOND
        self._queue(heard, row)
        return tx_tick, rf_channel

    def __repr__(self) -> str:
        return (
            f"InquiryScanSwarm(name={self.name!r}, slaves={self.store.size}, "
            f"pending_ticks={self.store.pending_ticks})"
        )


@dataclass(frozen=True)
class SwarmSlave:
    """A lightweight per-slave handle onto a swarm row: what the
    experiments and the BIPS facade hold for one scanning slave."""

    swarm: InquiryScanSwarm
    row: int

    @property
    def address(self) -> BDAddr:
        """The slave's Bluetooth device address."""
        return self.swarm._addresses[self.row]

    @property
    def name(self) -> str:
        """The slave's display name."""
        return self.swarm._names[self.row]

    @property
    def state(self) -> ScannerState:
        """Lifecycle state."""
        return self.swarm.state_of(self.row)

    @property
    def stats(self) -> ScannerStats:
        """A copy of the slave's counters."""
        return self.swarm.stats_of(self.row)

    def start(self, at_tick: Optional[int] = None) -> None:
        """Begin scanning (immediately, or at ``at_tick``)."""
        self.swarm.start_row(self.row, at_tick)

    def stop(self) -> None:
        """Abort scanning."""
        self.swarm.stop_row(self.row)

    def listen_position(self, tick: int) -> int:
        """Sequence position the slave listens on at ``tick``."""
        return self.swarm.listen_position(self.row, tick)

    def next_hear(self, from_tick: int, ignore_windows: bool = False) -> Optional[int]:
        """First tick >= ``from_tick`` at which the slave hears an ID."""
        return self.swarm.next_hear(self.row, from_tick, ignore_windows)


__all__ = ["InquiryScanSwarm", "SwarmSlave"]
