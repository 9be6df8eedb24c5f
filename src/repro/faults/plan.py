"""The fault plan: everything a chaos run will break, derived from a seed.

A :class:`FaultPlan` binds a :class:`~repro.faults.profiles.FaultProfile`
to a fault seed and deterministically expands it into concrete fault
events:

* a :class:`~repro.faults.injector.LANFaultInjector` for the transport;
* per-workstation crash windows (crash at ``start``, restart at ``end``);
* central-server brownout windows;
* per-trial radio outages for the Bluetooth-only experiment harnesses.

Every expansion draws from its own stream named after the thing it
breaks (``faults/ws/<room>``, ``faults/server``, ``faults/radio/<trial>``)
so the plan is independent of topology iteration order, worker count,
and everything else the determinism contract forbids.  The same
``(profile, seed)`` therefore breaks exactly the same things in a serial
run and under ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.clock import ticks_from_seconds
from repro.sim.rng import RandomStream

from .injector import LANFaultInjector
from .profiles import (
    BROWNOUT_SECONDS,
    CRASH_DOWNTIME_SECONDS,
    DEFAULT_ACTIVE_SECONDS,
    RADIO_OUTAGE_SECONDS,
    FaultProfile,
    profile_named,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Kernel

#: A half-open fault interval in ticks: the fault holds on
#: ``start <= tick < end``.
Window = tuple[int, int]


def _merge(windows: list[Window]) -> tuple[Window, ...]:
    """Sort and coalesce overlapping/adjacent windows."""
    merged: list[Window] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


def in_windows(windows: tuple[Window, ...], tick: int) -> bool:
    """Whether ``tick`` falls inside any of the (merged) windows."""
    return any(start <= tick < end for start, end in windows)


@dataclass(frozen=True)
class FaultPlan:
    """A profile bound to a fault seed; expands to concrete fault events."""

    profile: FaultProfile
    seed: int = 0

    @staticmethod
    def named(profile_name: str, seed: int = 0) -> "FaultPlan":
        """The plan for a registered profile name (CLI entry point)."""
        return FaultPlan(profile=profile_named(profile_name), seed=seed)

    @property
    def is_noop(self) -> bool:
        """Whether this plan injects nothing (the ``none`` profile)."""
        return self.profile.is_noop

    def active_until_tick(self) -> int:
        """End of the fault window in ticks."""
        return ticks_from_seconds(DEFAULT_ACTIVE_SECONDS)

    # -- expansion --------------------------------------------------------

    def lan_injector(self) -> Optional[LANFaultInjector]:
        """The transport injection point, or None without LAN faults."""
        if not self.profile.has_lan_faults:
            return None
        return LANFaultInjector(
            self.profile,
            RandomStream(self.seed, "faults", "lan"),
            active_until_tick=self.active_until_tick(),
        )

    def crash_windows(self, room_id: str, horizon_tick: int) -> tuple[Window, ...]:
        """When the workstation of ``room_id`` is down (crash → restart)."""
        return self._windows(
            ("ws", room_id),
            count=self.profile.crashes_per_workstation,
            band_seconds=CRASH_DOWNTIME_SECONDS,
            horizon_tick=horizon_tick,
        )

    def brownout_windows(self, horizon_tick: int) -> tuple[Window, ...]:
        """When the central server is browned out."""
        return self._windows(
            ("server",),
            count=self.profile.brownouts,
            band_seconds=BROWNOUT_SECONDS,
            horizon_tick=horizon_tick,
        )

    def radio_outages(self, trial_key: str, horizon_tick: int) -> tuple[Window, ...]:
        """Master radio downtime for one Bluetooth-only trial.

        The single-master harnesses (table1 and friends) have no LAN and
        no workstation process, so the profile's workstation-crash axis
        maps to the master's radio going deaf mid-trial; discovery then
        completes late (or not at all), degrading — not erasing — the
        experiment's output rows.
        """
        return self._windows(
            ("radio", trial_key),
            count=self.profile.radio_outages_per_trial,
            band_seconds=RADIO_OUTAGE_SECONDS,
            horizon_tick=horizon_tick,
        )

    def survival_predicate(self, trial_key: str, horizon_tick: int):
        """A channel reachability predicate enforcing the radio outages.

        Returns None when the profile has no radio-outage axis, so
        callers can pass the result straight to ``InquiryProcedure``.
        """
        outages = self.radio_outages(trial_key, horizon_tick)
        if not outages:
            return None
        return lambda sender, tick: not in_windows(outages, tick)

    def _windows(
        self,
        names: tuple[str, ...],
        count: int,
        band_seconds: tuple[float, float],
        horizon_tick: int,
    ) -> tuple[Window, ...]:
        """Draw ``count`` fault windows confined to the active window.

        Both the onset and the recovery are clamped inside the plan's
        active window, so "faults stop at T" really means the whole
        system is healthy again from T on — the precondition of every
        convergence invariant in the chaos suite.
        """
        if count <= 0 or horizon_tick <= 0:
            return ()
        limit = min(horizon_tick, self.active_until_tick())
        if limit <= 1:
            return ()
        rng = RandomStream(self.seed, "faults", *names)
        windows: list[Window] = []
        for _ in range(count):
            start = rng.randint(0, limit - 1)
            duration = ticks_from_seconds(rng.uniform(*band_seconds))
            end = min(start + max(1, duration), limit)
            if end > start:
                windows.append((start, end))
        return _merge(windows)
