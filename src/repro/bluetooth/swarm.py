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
then.  The answer is closed-form arithmetic on the master's train plan
(:meth:`~repro.bluetooth.hopping.InquiryTransmitSchedule.first_tx_run`,
one call per 1.28 s phase segment); no transmit timetable is built.

:class:`InquiryScanSwarm` keeps all slaves of one piconet as rows of
its own struct of arrays — clock offsets, hop phases, scan anchors,
lifecycle state and counters are parallel ``array('q')`` columns, so a
slave is a row index and a state read is a C-level array load — and
files each row in its due index (``tick -> rows``, in filing order)
under the tick at which it next acts.  A lone slave is a one-row swarm.

A response costs a row index, not a packet.  The FHS responses of one
due bucket are filed as rows into their ``(tx_tick, RF channel)``
group, which the swarm keeps, and the radio channel counts them in one
call.  At the group's tick the channel's collision rule resolves it
(:meth:`~repro.radio.channel.ResponseChannel.resolve`).  A lone response
from a device the master already knows goes to the master's repeat
receiver as a bare address; an :class:`~repro.bluetooth.packets.FHSPacket`
is built only when the master's receiver needs one (a first discovery)
or a reachability predicate reads every transmitter's.

Due buckets and the FHS groups the swarm opens are not kernel
events but entries ``(tick, seq, kind)`` of one swarm-local heap, the
swarm timeline.  Each entry's ``seq`` is reserved from the kernel
(:meth:`~repro.sim.kernel.Kernel.reserve_seq`) at the moment the bucket
or group is opened, just as posting an event there would take one, so
entries and kernel events share one ``(tick, seq)`` order.  A group
whose delivery is already the next entry in that order is settled at
once instead, under the ``seq`` it reserved.  One kernel callback,
:meth:`InquiryScanSwarm._wake`, drains every entry that precedes both
the kernel heap head and the kernel's drain bound (conservative
lookahead on one core); on a yield it posts its next wake under the
earliest entry's own reserved ``seq``
(:meth:`~repro.sim.kernel.Kernel.post_reserved`).  The firing order is
therefore exactly the one a single shared heap would give, foreign
events at the same tick included (enrolment stops, workstation timers,
other piconets' wakes), and the clock never passes a ``run_until``
target.

The drain takes every row step itself, straight-line, and files the
row's next due tick inline; ``_queue`` serves only :meth:`start_row`.
The master sends a position once per 10 ms train pass until its run
ends, and a row listens on it until its scan segment ends, so a row
whose rendezvous cursor is still open needs no search: a CONTINUOUS
responder hears again one pass later, and a row after a backoff hears at
the cursor's first pass at or after the backoff's end, each while that
stays before the cursor's integer stop (the end of the run or of the
segment, whichever is first).  A backoff is drawn from the row's stream
exactly as ``randint`` would draw it (:func:`~repro.sim.rng.bit_source`).

When every entry of the train pass that starts at the timeline head is
such a bucket, pass after pass repeats the same FHS groups with the
same collisions and the same receiver-capture outcome.  The drain then
replays K passes at once, in closed form (:meth:`InquiryScanSwarm._replay`):
the rows' counters, response ticks and cursors move by K passes, each
bucket moves 32K ticks later under a fresh ``seq``, and the channel
resolves the pass's groups K times in one call.  K stops short of the
cursors' stops, of the next other timeline entry and of the lookahead
horizon, so nothing the replay skips over could have run in between;
the master's pass receiver declines a pass that would make a first
discovery, which takes the path above.  The replay is exact: outputs,
spans and batch counters are those of pass-by-pass processing.

Ordering guarantees (pinned by the golden artefact digests and by
``tests/bluetooth/test_swarm_timeline.py``):

* every slave draws only from its own :class:`RandomStream` (one
  backoff draw per backoff), so one slave's draws never shift another's;
* rows due at the same tick act in the order they were filed (FIFO);
* buckets, deliveries and kernel events fire in ``(tick, seq)`` order,
  with every ``seq`` taken when its bucket or delivery was filed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from repro.radio.channel import ResponseChannel
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, bit_source, randint_width

from .address import BDAddr
from .btclock import CLKN_WRAP, BluetoothClock
from .constants import (
    INQUIRY_RESPONSE_DELAY_TICKS,
    NUM_INQUIRY_FREQUENCIES,
    SCAN_FREQUENCY_CHANGE_TICKS,
    TICKS_PER_SLOT,
    TICKS_PER_TRAIN_PASS,
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

#: The cursor every row starts with: its hear tick (-1) never equals a
#: tick, so the first response always searches afresh.
_NO_CURSOR: tuple[int, int, int] = (-1, 0, 0)

#: A tick no timeline reaches.
_NEVER = 1 << 62

#: FHS group keys are ``tx_tick * _GROUP_KEY_SCALE + rf_channel``: one
#: integer per (tick, RF channel), above every channel number.
_GROUP_KEY_SCALE = 128


class InquiryScanSwarm:
    """All inquiry-scanning slaves of one piconet, advanced in batch.

    One swarm serves one master schedule/channel pair and one shared
    :class:`ScanConfig`; per-slave variation (clock offset, base phase,
    window anchor, horizon, RNG stream) lives in the row columns.
    """

    def __init__(
        self,
        kernel: Kernel,
        schedule: InquiryTransmitSchedule,
        channel: ResponseChannel,
        config: Optional[ScanConfig] = None,
        name: str = "swarm",
    ) -> None:
        self.kernel = kernel
        self._clock = kernel.clock
        self.schedule = schedule
        self.channel = channel
        self.config = config if config is not None else ScanConfig()
        self.name = name
        # Row columns, signed 64-bit: wide enough for ticks, 28-bit
        # clocks and counters, with -1 as a "not yet" sentinel.  Rows
        # are append-only, so row indices stay valid for the per-row
        # Python-object lists below.
        self._offset = array("q")  # clock offset (CLKN = tick + offset mod 2^28)
        self._base = array("q")  # base sequence position (hop-frequency state)
        self._anchor = array("q")  # scan-window anchor, already mod interval
        self._horizon = array("q")  # scanning stops at this tick
        self._state = array("q")  # lifecycle (power mode) code
        self._action = array("q")  # pending-action code for the next due tick
        self._ids_heard = array("q")
        self._backoffs = array("q")
        self._responses = array("q")
        self._first_heard = array("q")  # -1 until the first ID is heard
        self._first_response = array("q")  # -1 until the first FHS is sent
        # The due index: tick -> rows filed for it, in filing order.  A
        # bucket leaves the index when its tick is processed, so a row
        # filed for the same tick during processing opens a fresh,
        # later bucket.
        self._due: dict[int, list[int]] = {}
        # Per-row Python objects the columns cannot hold.
        self._addresses: list[BDAddr] = []
        # Each row's stream's bound ``getrandbits``: its backoff draws.
        self._draws: list[Callable[[int], int]] = []
        self._names: list[str] = []
        self._response_ticks: list[list[int]] = []
        # Rendezvous cursor per row: ``(hear_tick, stop, position)`` of
        # the last answer ``next_hear`` gave under the row's own window
        # semantics (see _wake).  Every ``hear_tick + k *
        # TICKS_PER_TRAIN_PASS < stop`` is a hear of ``position`` in the
        # same scan segment.
        self._cursors: list[tuple[int, int, int]] = []
        # Shared-config scalars, predigested so the hot loop does no
        # enum dispatch or dataclass attribute chasing.
        cfg = self.config
        self._window_ticks = cfg.window_ticks
        self._interval_ticks = cfg.interval_ticks
        self._continuous = cfg.is_continuous
        self._phase_code = _PHASE_CODES[cfg.phase_mode]
        reentry_immediate = cfg.backoff_reentry is BackoffReentry.IMMEDIATE
        self._response_timeout = cfg.response_timeout_ticks
        self._mode_code = _MODE_CODES[cfg.response_mode]
        self._sequence = schedule.sequence
        self._label = f"swarm:{name}"
        # Open FHS groups: responders' rows in filing order, keyed by
        # ``tx_tick * _GROUP_KEY_SCALE + rf_channel``; each has one
        # timeline entry until it is settled.
        self._groups: dict[int, list[int]] = {}
        # How the swarm counts a group's transmissions on the channel
        # (read once per wake).
        self._announce = channel.announce
        # The swarm timeline: a heap of (tick, seq, kind) entries, kind
        # -1 for a due bucket and the RF channel for an FHS group;
        # ``seq`` is reserved from the kernel, so entries sort among
        # kernel events exactly as posted events would.  ``_posted``
        # holds the seqs of wakes currently in the kernel heap (at most
        # one per live entry, removed as each wake fires).
        self._timeline: list[tuple[int, int, int]] = []
        self._posted: set[int] = set()
        self._draining = False
        #: Due buckets processed, and the row steps taken inside them.
        self.advances = 0
        self.slave_steps = 0
        # The first tick at which _wake tries a pass replay (_replay):
        # never without bulk CONTINUOUS responses, a pass receiver and
        # an inqrespTO that a steady responder's one-pass gap keeps.
        replayable = (
            self._mode_code == _MODE_CONTINUOUS
            and channel.reachable is None
            and channel.repeat_receiver is not None
            and channel.pass_receiver is not None
            and not (self._continuous and self._response_timeout < TICKS_PER_TRAIN_PASS)
        )
        self._replay_from = 0 if replayable else _NEVER
        # Everything _wake reads that is fixed for the swarm's lifetime,
        # unpacked in one step: a wake that drains one or two entries
        # (many piconets interleaving) pays for its set-up on each call.
        # No bound method of the swarm itself: that would make the swarm
        # a reference cycle, freed only by the cyclic GC (peak RSS).
        self._wake_locals = (
            kernel.queue,
            self._clock,
            self._due,
            kernel.reserve_seq,
            self._state,
            self._action,
            self._cursors,
            self._offset,
            self._addresses,
            self._ids_heard,
            self._responses,
            self._response_ticks,
            self._first_response,
            self._sequence,
            self._groups,
            channel.resolve,
            channel.repeat_receiver,
            channel.receiver,
            channel.reachable is not None,
            self._mode_code,
            self._continuous,
            self._response_timeout,
            self._first_heard,
            self._backoffs,
            self._draws,
            cfg.backoff_max_slots,
            randint_width(cfg.backoff_max_slots),
            # After a backoff a windowed scan that re-enters at once
            # searches without its windows; inqrespTO applies while the
            # row listens throughout.
            reentry_immediate,
            self._continuous or reentry_immediate,
        )

    # -- population -------------------------------------------------------

    @property
    def slave_count(self) -> int:
        """Number of slaves (rows) ever added to this swarm."""
        return len(self._offset)

    def scan_totals(self) -> tuple[int, int, int]:
        """IDs heard, backoffs and FHS responses, summed over every row."""
        return sum(self._ids_heard), sum(self._backoffs), sum(self._responses)

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
        row = len(self._offset)
        self._offset.append(clock.offset)
        self._base.append(base_phase)
        self._anchor.append(anchor % self._interval_ticks)
        self._horizon.append(horizon_tick)
        self._state.append(_IDLE)
        self._action.append(0)
        self._ids_heard.append(0)
        self._backoffs.append(0)
        self._responses.append(0)
        self._first_heard.append(-1)
        self._first_response.append(-1)
        self._addresses.append(address)
        self._draws.append(bit_source(rng))
        self._names.append(name or str(address))
        self._response_ticks.append([])
        self._cursors.append(_NO_CURSOR)
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
        self._retire(row, _STOPPED)

    def _retire(self, row: int, state: int) -> None:
        """End the row's scanning in ``state`` (DONE, EXHAUSTED or
        STOPPED) and reset its cursor, so a finished row never stands on
        a rendezvous."""
        self._state[row] = state
        self._cursors[row] = _NO_CURSOR

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

    def next_hear(
        self, row: int, from_tick: int, ignore_windows: bool = False
    ) -> Optional[int]:
        """First tick >= ``from_tick`` at which the row hears an ID.

        The inquiry-scan form of ``scan.next_listen_rendezvous``,
        clipped to the row's horizon: intersect the scan windows (unless
        ignored), the 1.28 s phase segments, and the master schedule.
        Master-idle stretches are skipped in one ``next_active`` jump
        instead of being walked segment by segment — no transmission
        can land outside the schedule's windows.  Each segment costs one
        ``first_tx_run`` on the listen position.

        An answer found under the row's own window semantics (not
        ``ignore_windows`` on a windowed scan) is also recorded as the
        row's rendezvous cursor, stopped at the segment end or the end
        of the master's run of transmissions, whichever comes first.
        """
        before = self._horizon[row]
        always = ignore_windows or self._continuous
        own_windows = self._continuous or not ignore_windows
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
        first_tx_run = self.schedule.first_tx_run
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
            run = first_tx_run(position, tick, segment_end)
            if run is not None:
                heard, stop = run
                if own_windows:
                    self._cursors[row] = (
                        heard, stop if stop < segment_end else segment_end, position
                    )
                return heard
            tick = segment_end
        return None

    # -- the swarm timeline -------------------------------------------------

    def _queue(self, tick: int, row: int) -> None:
        """File ``row`` for ``tick``.

        The first filer of a tick opens its bucket and reserves the
        bucket's timeline ``seq`` then, as posting an event would.
        Outside a drain, a bucket that becomes the timeline's earliest
        entry gets its wake posted now.
        """
        bucket = self._due.get(tick)
        if bucket is not None:
            bucket.append(row)
            return
        self._due[tick] = [row]
        seq = self.kernel.reserve_seq()
        timeline = self._timeline
        entry = (tick, seq, -1)
        if self._draining or (timeline and timeline[0] < entry):
            heappush(timeline, entry)
            return
        heappush(timeline, entry)
        self._posted.add(seq)
        self.kernel.post_reserved(tick, seq, self._wake, self._label)

    @hot_path
    def _wake(self) -> None:
        """Drain the timeline up to the kernel's next event: the swarm's
        one kernel callback.

        Entries are ``(tick, seq, kind)``; each is processed only while
        it precedes both the kernel heap head and the drain bound, so
        buckets, deliveries and every foreign event interleave in the
        exact ``(tick, seq)`` order one shared heap would give them.  On
        a yield the earliest entry's wake is posted under that entry's
        own ``seq`` (unless it already has one).  A bucket that starts a
        steady train pass first tries :meth:`_replay`, at most once per
        retry tick the last try left.  Otherwise each row takes its
        pending action inline (seek, first hear, backoff end, respond),
        resumes from its rendezvous cursor where that is still open, and
        is filed for its next one.  The bucket and step counts
        accumulate in locals and are added to :attr:`advances` and
        :attr:`slave_steps` before returning.

        A bucket files its responders, as row indices, into their FHS
        group.  A group the bucket opens reserves its ``seq`` then and is
        delivered from the timeline at its tick, or at once when nothing
        can come between: its tick precedes the horizon tick and every
        timeline entry.  The channel resolves each group in one call;
        the master's receivers take the lone survivor (see the module
        docstring).
        """
        timeline = self._timeline
        posted = self._posted
        if timeline:
            posted.discard(timeline[0][1])
        (
            heap, clock, due, reserve, state, action, cursors, offsets,
            addresses, ids_heard, responses, response_ticks, first_response,
            sequence, groups, resolve, repeat, receiver, filtered, mode,
            windowless, timeout, first_heard, backoffs, draws, backoff_max,
            backoff_bits, reentry_immediate, timed,
        ) = self._wake_locals
        bound = self.kernel.drain_bound
        announce = self._announce
        next_hear = self.next_hear
        listen_position = self.listen_position
        replay_from = self._replay_from
        n_advances = 0
        n_steps = 0
        batch: list[int] = []
        # The lookahead horizon as a (tick, seq) pair: an entry is due
        # while it sorts below both the bound (every seq of tick
        # ``bound``) and the kernel heap head.  An entry equal to the head
        # is this swarm's own pending wake, so it waits for that wake.
        # Only a delivery runs code that can post kernel events (the
        # receiver and its listeners), so the head is re-read after each.
        horizon = (bound + 1, -1)
        head = None
        if heap:
            head = heap[0]
            if head[0] <= bound:
                horizon = (head[0], head[1])
        self._draining = True
        try:
            while timeline:
                entry = timeline[0]
                if entry > horizon:
                    break
                heappop(timeline)
                tick = entry[0]
                clock._now = tick
                kind = entry[2]
                if kind < 0:
                    if tick >= replay_from:
                        replayed = self._replay(tick, horizon[0])
                        replay_from = self._replay_from
                        if replayed:
                            continue
                    # A due bucket.  It ends here unless it opens an FHS
                    # group whose delivery is the next entry in (tick,
                    # seq) order; that group is delivered below at once.
                    rows = due.pop(tick, ())
                    n_advances += 1
                    n_steps += len(rows)
                    batch_channel = -1
                    tx_tick = tick + INQUIRY_RESPONSE_DELAY_TICKS
                    next_tx = tick + TICKS_PER_TRAIN_PASS
                    filed_tick = -1  # no heard tick equals it: the first filing sets filed_bucket
                    filed_bucket: list[int]
                    for row in rows:
                        if state[row] == _STOPPED:
                            n_steps -= 1
                            continue  # tombstoned by stop_row; nothing pending
                        act = action[row]
                        if act == _ACT_RESPOND:
                            # Answer the ID heard now with an FHS one slot
                            # later.  A cursor standing on ``tick`` gives
                            # the position without a fresh listen_position.
                            hear_tick, stop, position = cursors[row]
                            if hear_tick != tick:
                                position = listen_position(row, tick)
                            rf_channel = sequence[position]
                            if rf_channel != batch_channel:
                                if batch:
                                    # Every row due at ``tick`` heard the one
                                    # position the master sent then.
                                    raise RuntimeError(f"bucket at {tick} answers on two channels")
                                batch_channel = rf_channel
                            ids_heard[row] += 1
                            batch.append(row)
                            responses[row] += 1
                            response_ticks[row].append(tx_tick)
                            if first_response[row] < 0:
                                first_response[row] = tx_tick
                            if mode == _MODE_BACKOFF_EACH:
                                act = _ACT_BACKOFF_END
                            elif mode == _MODE_SINGLE:
                                self._retire(row, _DONE)
                                continue
                            else:
                                # CONTINUOUS: answer the next ID heard.  On
                                # the cursor that is one pass later while
                                # before its stop, as a fresh next_hear(row,
                                # tick + 1) would find: the master sends the
                                # position once per pass until its run ends,
                                # and the row listens on it until its segment
                                # ends.  A gap past inqrespTO reverts to scan.
                                if hear_tick == tick and next_tx < stop:
                                    heard = next_tx
                                    cursors[row] = (next_tx, stop, position)
                                else:
                                    found = next_hear(row, tick + 1)
                                    if found is None:
                                        self._retire(row, _EXHAUSTED)
                                        continue
                                    heard = found
                                if windowless and heard - tick > timeout:
                                    state[row] = _SEEKING
                                    act = _ACT_HEAR
                        elif act == _ACT_BACKOFF_END:
                            # Listen again after the backoff.  A cursor run
                            # still open at ``tick`` gives the next hear at
                            # once, by the same fact as a CONTINUOUS
                            # response's.  That holds for a windowed scan
                            # re-entering at once too: the cursor lies in one
                            # of its windows, so the window-free search finds
                            # the same pass in the same segment and run.
                            hear_tick, stop, position = cursors[row]
                            # The cursor's first pass at or after ``tick``.
                            heard = hear_tick - (
                                (hear_tick - tick) // TICKS_PER_TRAIN_PASS * TICKS_PER_TRAIN_PASS
                            )
                            if hear_tick <= tick and heard < stop:
                                cursors[row] = (heard, stop, position)
                            else:
                                found = next_hear(row, tick, reentry_immediate)
                                if found is None:
                                    self._retire(row, _EXHAUSTED)
                                    continue
                                heard = found
                            # inqrespTO measures listening time only, so it
                            # applies when the slave listens throughout (a
                            # wait for its own next window is not air
                            # silence); expired, the eventual hear is a first
                            # hear with a fresh backoff.
                            if timed and heard - tick > timeout:
                                state[row] = _SEEKING
                                act = _ACT_HEAR
                            else:
                                state[row] = _RESPONDING
                                act = _ACT_RESPOND
                        elif act == _ACT_HEAR:
                            ids_heard[row] += 1
                            if first_heard[row] < 0:
                                first_heard[row] = tick
                            act = _ACT_BACKOFF_END
                        else:  # _ACT_SEEK: find the next first hear
                            found = next_hear(row, tick)
                            if found is None:
                                self._retire(row, _EXHAUSTED)
                                continue
                            heard = found
                            state[row] = _SEEKING
                            act = _ACT_HEAR
                        if act == _ACT_BACKOFF_END:
                            # The row's one draw: randint(0, backoff_max),
                            # exactly as Random draws it (see bit_source).
                            backoffs[row] += 1
                            draw = draws[row]
                            slots = draw(backoff_bits)
                            while slots > backoff_max:
                                slots = draw(backoff_bits)
                            heard = tick + slots * TICKS_PER_SLOT
                            state[row] = _BACKOFF
                        action[row] = act
                        if heard != filed_tick:
                            filed_tick = heard
                            found_bucket = due.get(heard)
                            if found_bucket is None:
                                filed_bucket = due[heard] = []
                                heappush(timeline, (heard, reserve(), -1))
                            else:
                                filed_bucket = found_bucket
                        filed_bucket.append(row)
                    if not batch:
                        continue
                    # File the responders into their FHS group: one group
                    # per bucket, since every row due at ``tick`` heard the
                    # one position the master sent then.
                    announce(tx_tick, batch)
                    key = tx_tick * _GROUP_KEY_SCALE + batch_channel
                    rows = batch
                    batch = []
                    group = groups.get(key)
                    if group is not None:
                        group.extend(rows)
                        continue
                    seq = reserve()
                    if tx_tick >= horizon[0] or (timeline and timeline[0][0] <= tx_tick):
                        groups[key] = rows
                        heappush(timeline, (tx_tick, seq, batch_channel))
                        continue
                    # The new group's delivery is the next entry in (tick,
                    # seq) order: nothing can join the group or run before
                    # it, so it is settled now, without a timeline entry.
                    tick = tx_tick
                    clock._now = tick
                    kind = batch_channel
                else:
                    rows = groups.pop(tick * _GROUP_KEY_SCALE + kind)
                # Deliver the (tick, kind) FHS group ``rows``.  A lone
                # survivor the master already knows goes to its repeat
                # receiver without a packet; a packet is built only for the
                # receiver (a first discovery) or, under a
                # reachability predicate, for every transmitter.
                if filtered:
                    self._settle_filtered(tick, kind, rows)
                else:
                    lone = resolve(tick, kind, rows, addresses)
                    if lone >= 0:
                        row = rows[lone]
                        sender = addresses[row]
                        if repeat is None or not repeat(sender, tick):
                            receiver(
                                FHSPacket(sender, (tick + offsets[row]) % CLKN_WRAP, kind, tick),
                                tick,
                            )
                if heap and heap[0] is not head:
                    head = heap[0]
                    if head[0] <= bound:
                        horizon = (head[0], head[1])
        finally:
            self._draining = False
            self.advances += n_advances
            self.slave_steps += n_steps
        if timeline:
            entry = timeline[0]
            if entry[1] not in posted:
                posted.add(entry[1])
                self.kernel.post_reserved(entry[0], entry[1], self._wake, self._label)

    def _replay(self, tick: int, limit: int) -> int:
        """Advance the steady train pass that starts at ``tick`` by K
        passes at once, in closed form; ``tick`` is the head bucket,
        already off the timeline.

        The pass is every timeline entry before ``tick +
        TICKS_PER_TRAIN_PASS``.  It is steady when each is a due bucket
        whose rows all respond (``_RESPONDING``, ``_ACT_RESPOND``) on a
        cursor that stands on the bucket's tick: no FHS group is open,
        every row answers the ID heard there and hears its position again
        one pass later, and ``_wake`` would take each pass alike.  K
        counts the whole passes that keep every row's ``hear + 32K`` before
        its cursor stop and whose FHS groups all settle before ``limit``
        (the lookahead horizon's tick) and the next other entry, so
        nothing else runs in between.  The channel resolves the pass's
        groups K times (:meth:`~repro.radio.channel.ResponseChannel.resolve_passes`);
        its pass receiver declines for a first discovery.

        A replay does what K passes of ``_wake`` would: each row answers
        K more times (one response tick per pass) and its cursor moves
        by 32K ticks, and each bucket moves to ``tick + 32K`` under a
        fresh ``seq`` reserved in tick order, joining a bucket already
        there, as the last pass would have filed it; the bucket and
        step counts grow as if every bucket had been processed.
        Returns K, or 0 when declined with the timeline as it was.
        Either way :attr:`_replay_from` is set to the first tick worth
        another try.
        """
        timeline = self._timeline
        due = self._due
        state = self._state
        action = self._action
        cursors = self._cursors
        pass_end = tick + TICKS_PER_TRAIN_PASS
        popped: list[tuple[int, int, int]] = []
        buckets: list[tuple[int, list[int]]] = []
        fit = _NEVER
        first_stop = _NEVER
        bucket_tick = tick
        while True:
            rows = due[bucket_tick]
            for row in rows:
                hear, stop, _ = cursors[row]
                if hear != bucket_tick or action[row] != _ACT_RESPOND or state[row] != _RESPONDING:
                    return self._decline(popped, bucket_tick + 1)
                passes = (stop - hear - 1) // TICKS_PER_TRAIN_PASS
                if passes < fit:
                    fit = passes
                if stop < first_stop:
                    first_stop = stop
            buckets.append((bucket_tick, rows))
            if not timeline or timeline[0][0] >= pass_end:
                break
            entry = heappop(timeline)
            popped.append(entry)
            bucket_tick = entry[0]
            if entry[2] >= 0:
                return self._decline(popped, bucket_tick + 1)  # an open FHS group
        if timeline and timeline[0][0] < limit:
            limit = timeline[0][0]
        # The last pass's last group, at ``bucket_tick + DELAY + 32(K-1)``,
        # must settle before ``limit``.
        reach = (limit - bucket_tick - INQUIRY_RESPONSE_DELAY_TICKS - 1) // TICKS_PER_TRAIN_PASS + 1
        retry = limit if reach <= fit else first_stop
        passes = reach if reach <= fit else fit
        if passes < 2:
            return self._decline(popped, retry)
        sequence = self._sequence
        groups: list[tuple[int, int, list[int]]] = []
        for bucket_tick, rows in buckets:
            groups.append(
                (bucket_tick + INQUIRY_RESPONSE_DELAY_TICKS, sequence[cursors[rows[0]][2]], rows)
            )
        if not self.channel.resolve_passes(
            groups, self._addresses, passes, TICKS_PER_TRAIN_PASS
        ):
            return self._decline(popped, pass_end)
        span = passes * TICKS_PER_TRAIN_PASS
        reserve = self.kernel.reserve_seq
        ids_heard = self._ids_heard
        responses = self._responses
        response_ticks = self._response_ticks
        first_response = self._first_response
        steps = 0
        for bucket_tick, rows in buckets:
            del due[bucket_tick]
            steps += len(rows)
            for row in rows:
                hear, stop, position = cursors[row]
                tx_tick = hear + INQUIRY_RESPONSE_DELAY_TICKS
                ids_heard[row] += passes
                responses[row] += passes
                response_ticks[row].extend(range(tx_tick, tx_tick + span, TICKS_PER_TRAIN_PASS))
                if first_response[row] < 0:
                    first_response[row] = tx_tick
                cursors[row] = (hear + span, stop, position)
            moved = bucket_tick + span
            bucket = due.get(moved)
            if bucket is None:
                due[moved] = rows
                heappush(timeline, (moved, reserve(), -1))
            else:
                bucket.extend(rows)
        self.advances += len(buckets) * passes
        self.slave_steps += steps * passes
        # Where the last pass's last group would have left the clock.
        self._clock._now = groups[-1][0] + span - TICKS_PER_TRAIN_PASS
        self._replay_from = retry
        return passes

    def _decline(self, popped: list[tuple[int, int, int]], retry: int) -> int:
        """Put back the entries a declined :meth:`_replay` took off the
        timeline and note when to try again."""
        timeline = self._timeline
        for entry in popped:
            heappush(timeline, entry)
        self._replay_from = retry
        return 0

    def _settle_filtered(self, tick: int, rf_channel: int, rows: list[int]) -> None:
        """Deliver an FHS group under a reachability predicate, which
        reads every transmitter's packet."""
        addresses = self._addresses
        offsets = self._offset
        packets: list[FHSPacket] = []
        for row in rows:
            packets.append(
                FHSPacket(addresses[row], (tick + offsets[row]) % CLKN_WRAP, rf_channel, tick)
            )
        lone = self.channel.resolve(tick, rf_channel, rows, addresses, packets)
        if lone >= 0:
            self.channel.receiver(packets[lone], tick)

    def __repr__(self) -> str:
        return (
            f"InquiryScanSwarm(name={self.name!r}, slaves={len(self._offset)}, "
            f"pending_ticks={len(self._due)})"
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
