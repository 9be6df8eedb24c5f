"""Bluetooth timing and protocol constants.

Every number here comes either from §3 of the paper or from the
Bluetooth 1.1 specification values the paper quotes.  All durations are
expressed in ticks (1 tick = 312.5 µs, see :mod:`repro.sim.clock`).
"""

from __future__ import annotations

from repro.sim.clock import ticks_from_milliseconds, ticks_from_seconds

# -- radio ---------------------------------------------------------------

#: Number of RF channels in the 2.4 GHz ISM band used by Bluetooth.
NUM_RF_CHANNELS = 79

#: Number of dedicated inquiry (and page) hopping frequencies.
NUM_INQUIRY_FREQUENCIES = 32

#: Frequencies per train (the 32 inquiry frequencies are split into
#: train A and train B of 16 each).
TRAIN_SIZE = 16

#: Number of trains.
NUM_TRAINS = 2

# -- slot timing ---------------------------------------------------------

#: One half-slot (one tick) is 312.5 µs; a slot is 625 µs = 2 ticks.
TICKS_PER_HALF_SLOT = 1
TICKS_PER_SLOT = 2

#: One inquiry train pass: 16 frequencies, two ID packets per even slot
#: with the odd slots interleaved for listening -> 16 slots = 10 ms.
TICKS_PER_TRAIN_PASS = 16 * TICKS_PER_SLOT  # 32 ticks = 10 ms

#: A slave that hears an ID packet answers with an FHS packet exactly
#: 625 µs (one slot) later.
INQUIRY_RESPONSE_DELAY_TICKS = TICKS_PER_SLOT

# -- inquiry -------------------------------------------------------------

#: Each train must be repeated at least N_inquiry = 256 times before the
#: master switches to the other train (256 passes * 10 ms = 2.56 s).
N_INQUIRY = 256

#: Ticks the master dwells on one train before switching.
TICKS_PER_TRAIN_DWELL = N_INQUIRY * TICKS_PER_TRAIN_PASS  # 8192 slots = 2.56 s

#: An error-free inquiry needs at least three train switches, hence the
#: canonical maximum inquiry length of 4 * 2.56 s = 10.24 s.
INQUIRY_MAX_TICKS = 4 * TICKS_PER_TRAIN_DWELL

#: Inquiry-response backoff: uniform in 0..1023 slots (Bluetooth 1.1).
BACKOFF_MAX_SLOTS = 1023

#: inqrespTO, 128 slots: if the air goes quiet for longer than this while
#: a slave is in the response phase, it reverts to plain inquiry scan and
#: the next ID heard triggers a fresh random backoff.  This is what
#: re-randomises contention between master inquiry windows.
INQUIRY_RESPONSE_TIMEOUT_TICKS = 128 * TICKS_PER_SLOT

# -- scan (defaults quoted in the paper §3.1/§3.2) -------------------------

#: T_inquiry_scan: interval between the starts of consecutive inquiry
#: scan windows (default 1.28 s).
T_INQUIRY_SCAN_TICKS = ticks_from_seconds(1.28)  # 4096

#: T_w_inquiry_scan: length of one inquiry scan window (default 11.25 ms,
#: just over one 10 ms train pass so a full pass always fits).
T_W_INQUIRY_SCAN_TICKS = ticks_from_milliseconds(11.25)  # 36

#: Page scan defaults equal the inquiry scan defaults.
T_PAGE_SCAN_TICKS = T_INQUIRY_SCAN_TICKS
T_W_PAGE_SCAN_TICKS = T_W_INQUIRY_SCAN_TICKS

#: The slave's scan frequency changes every 1.28 s (driven by clock bits
#: CLKN 16-12, i.e. every 4096 ticks).
SCAN_FREQUENCY_CHANGE_TICKS = 4096

# -- piconet -------------------------------------------------------------

#: Maximum number of active slaves in a piconet (3-bit AM_ADDR, 0 is
#: reserved for broadcast).
MAX_ACTIVE_SLAVES = 7

#: Link supervision timeout default (spec default 20 s); BIPS uses a much
#: shorter presence timeout, configured at the core layer.
SUPERVISION_TIMEOUT_TICKS = ticks_from_seconds(20.0)

# -- paper §5 scheduling policy -------------------------------------------

#: Inquiry window the paper recommends for the BIPS master (3.84 s:
#: one full train dwell of 2.56 s plus 1.28 s on the second train).
BIPS_INQUIRY_WINDOW_TICKS = TICKS_PER_TRAIN_DWELL + TICKS_PER_TRAIN_DWELL // 2

#: Length of a complete BIPS master operational cycle (≈15.4 s: mean
#: time for a pedestrian to cross a 20 m piconet at 1.3 m/s).
BIPS_OPERATIONAL_CYCLE_TICKS = ticks_from_seconds(15.4)

#: General (unlimited) inquiry access code LAP, shared by all devices.
GIAC_LAP = 0x9E8B33
