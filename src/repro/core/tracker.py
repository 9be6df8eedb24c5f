"""Presence tracking logic for one workstation.

"Every workstation has the task of computing the presence of those
mobile devices inside the piconet.  These presences are revealed at
fixed intervals of time.  In order to reduce the computational and
communication load of the system, a workstation updates the central
location database only when it reveals a new presence or a new
absence." (§2)

The tracker turns per-cycle *sighting sets* (which devices answered the
inquiry window) into presence/absence *deltas*.  Discovery is
probabilistic (§4: ≈95 % per 3.84 s window), so a single missed window
must not be read as departure: a device becomes absent only after
``miss_threshold`` consecutive silent windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from repro.bluetooth.address import BDAddr


@dataclass(frozen=True)
class CycleDeltas:
    """What changed in one operational cycle."""

    cycle_index: int
    tick: int
    new_presences: tuple[BDAddr, ...]
    new_absences: tuple[BDAddr, ...]


@dataclass
class _DeviceState:
    present: bool = False
    consecutive_misses: int = 0
    last_seen_cycle: int = -1


@dataclass
class PresenceTracker:
    """Delta-based presence tracking with miss hysteresis.

    Args:
        miss_threshold: consecutive inquiry windows a present device may
            stay silent before it is declared absent.  1 = trust every
            window (cheap but flappy at 95 % discovery probability);
            the default 2 makes a false absence a ≤0.25 % event per
            cycle while bounding absence-detection latency at two
            cycles (≈31 s on the §5 schedule).
    """

    miss_threshold: int = 2
    _states: dict[BDAddr, _DeviceState] = field(default_factory=dict)
    _cycle_index: int = 0
    presences_reported: int = 0
    absences_reported: int = 0

    def __post_init__(self) -> None:
        if self.miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1: {self.miss_threshold}")

    @property
    def present_devices(self) -> set[BDAddr]:
        """Devices currently believed present."""
        return {
            addr
            for addr, state in self._states.items()  # lint: disable=DET003 -- builds an unordered set; no iteration order escapes
            if state.present
        }

    def observe_cycle(self, seen: Iterable[BDAddr], tick: int) -> CycleDeltas:
        """Fold one inquiry window's sightings into the presence state.

        Returns the deltas to send to the central server (possibly
        empty).
        """
        seen_set = set(seen)
        new_presences: list[BDAddr] = []
        new_absences: list[BDAddr] = []

        for address in sorted(seen_set):
            state = self._states.setdefault(address, _DeviceState())
            state.consecutive_misses = 0
            state.last_seen_cycle = self._cycle_index
            if not state.present:
                state.present = True
                new_presences.append(address)

        for address, state in sorted(self._states.items(), key=itemgetter(0)):
            if address in seen_set or not state.present:
                continue
            state.consecutive_misses += 1
            if state.consecutive_misses >= self.miss_threshold:
                state.present = False
                new_absences.append(address)

        # Devices that were never declared present and have gone quiet
        # can be dropped entirely to keep the state bounded.
        for address, state in sorted(self._states.items(), key=itemgetter(0)):
            if not state.present and self._cycle_index - state.last_seen_cycle > 10:
                del self._states[address]

        self._cycle_index += 1
        self.presences_reported += len(new_presences)
        self.absences_reported += len(new_absences)
        return CycleDeltas(
            cycle_index=self._cycle_index - 1,
            tick=tick,
            new_presences=tuple(sorted(new_presences)),
            new_absences=tuple(sorted(new_absences)),
        )

    def force_absent(self, address: BDAddr) -> bool:
        """Drop a device immediately (e.g. its user logged out).

        Returns True if it had been present.
        """
        state = self._states.pop(address, None)
        return bool(state and state.present)
