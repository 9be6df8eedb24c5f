"""The Bluetooth native clock (CLKN).

Every device free-runs a 28-bit counter at 3.2 kHz (one increment per
312.5 µs half-slot).  Since the kernel tick *is* one half-slot, a
device's native clock is simply the kernel time plus a per-device
offset, wrapped to 28 bits.

The clock drives the scan-frequency phase: bits CLKN 16-12 change every
1.28 s (4096 ticks), which is why a scanning slave changes its listening
frequency at that cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import SCAN_FREQUENCY_CHANGE_TICKS

#: CLKN is a 28-bit counter; it wraps roughly every 23.3 hours.
CLKN_BITS = 28
CLKN_WRAP = 1 << CLKN_BITS


@dataclass(frozen=True)
class BluetoothClock:
    """A device's free-running native clock.

    Args:
        offset: the device's clock offset in ticks relative to simulated
            time zero.  Each physical device powers up at a random
            moment, so offsets are typically drawn uniformly from
            ``[0, CLKN_WRAP)``.
    """

    offset: int = 0

    def clkn(self, tick: int) -> int:
        """Native clock value at kernel time ``tick``."""
        return (tick + self.offset) % CLKN_WRAP

    def ticks_to_next_phase_change(self, tick: int) -> int:
        """Ticks from ``tick`` until the scan phase next advances.

        Always in ``[1, 4096]``: if ``tick`` sits exactly on a boundary
        the *next* change is a full period away.
        """
        position = self.clkn(tick) % SCAN_FREQUENCY_CHANGE_TICKS
        return SCAN_FREQUENCY_CHANGE_TICKS - position
