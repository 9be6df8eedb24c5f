"""Device identity: the bundle of address, clock, and scan personality.

A :class:`BluetoothDevice` is what the higher layers (BIPS core,
mobility, experiments) pass around; the protocol machinery binds it to
scanners, pagers, and piconets as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.rng import RandomStream

from .address import BDAddr, address_block
from .btclock import CLKN_WRAP, BluetoothClock
from .constants import NUM_INQUIRY_FREQUENCIES


@dataclass(frozen=True)
class BluetoothDevice:
    """One Bluetooth radio with its free-running clock.

    ``base_phase`` is the device's inquiry-scan phase at clock zero —
    together with the clock offset it determines which inquiry frequency
    the device listens on at any instant.
    """

    address: BDAddr
    clock: BluetoothClock = field(default_factory=BluetoothClock)
    base_phase: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.base_phase < NUM_INQUIRY_FREQUENCIES:
            raise ValueError(f"base_phase out of range: {self.base_phase}")


def make_devices(
    count: int,
    rng: RandomStream,
    phase_range: Optional[tuple[int, int]] = None,
) -> list[BluetoothDevice]:
    """Create ``count`` devices with random clocks and scan phases.

    Args:
        phase_range: inclusive bounds for the random ``base_phase``;
            default spans all 32 positions.  The Figure-2 scenario uses
            ``(0, 15)`` so every slave starts on a train-A frequency.
    """
    low, high = phase_range if phase_range is not None else (0, NUM_INQUIRY_FREQUENCIES - 1)
    if not 0 <= low <= high < NUM_INQUIRY_FREQUENCIES:
        raise ValueError(f"invalid phase range: {phase_range}")
    devices = []
    for index, address in enumerate(address_block(count)):
        devices.append(
            BluetoothDevice(
                address=address,
                clock=BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1)),
                base_phase=rng.randint(low, high),
                name=f"dev-{index}",
            )
        )
    return devices
