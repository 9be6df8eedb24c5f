"""The LAN fault injector: per-message drop/delay/duplicate/reorder.

:class:`LANFaultInjector` is the injection point the transport consults
on every send (see ``LANTransport(fault_injector=...)``) — faults enter
through a declared seam, not by monkeypatching delivery internals.  Each
consultation returns a :class:`FaultDecision`; the transport applies it
and stays otherwise unchanged.

Decisions are drawn from the injector's own seeded stream, so a fault
run is exactly reproducible from ``(profile, fault seed)`` and the
simulation's non-fault streams never shift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.sim.clock import ticks_from_milliseconds

from .profiles import DELAY_MS, REORDER_MS, FaultProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.rng import RandomStream


#: Extra-delay histogram buckets in ticks (1 tick = 312.5 µs).
_DELAY_BUCKETS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class FaultDecision(NamedTuple):
    """What the injector wants done with one message."""

    drop: bool = False
    extra_delay_ticks: int = 0
    duplicates: int = 0


#: The decision for a healthy message (shared, it is immutable).
NO_FAULT = FaultDecision()


class LANFaultInjector:
    """Draws one :class:`FaultDecision` per transport send.

    The draw order per message is fixed (drop, duplicate, delay,
    reorder) so a decision stream is a pure function of the seed and
    the send sequence.  Outside the profile's active window every
    message passes untouched.
    """

    def __init__(
        self,
        profile: FaultProfile,
        rng: "RandomStream",
        active_until_tick: int,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.profile = profile
        self.rng = rng
        self.active_until_tick = active_until_tick
        self.decisions = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        # The tallies above are folded into ``faults.lan_*`` counters at
        # the end of a run; only the delay distribution is pushed.
        self._m_delay = (
            metrics.histogram("faults.lan_extra_delay_ticks", buckets=_DELAY_BUCKETS)
            if metrics is not None
            else None
        )

    def decide(
        self, now: int, source: str, destination: str, message: Any
    ) -> FaultDecision:
        """The fault verdict for one message about to be sent at ``now``."""
        if now >= self.active_until_tick:
            return NO_FAULT
        profile = self.profile
        if not profile.has_lan_faults:
            return NO_FAULT
        self.decisions += 1
        if profile.drop_probability and self.rng.random() < profile.drop_probability:
            self.dropped += 1
            return FaultDecision(drop=True)
        duplicates = 0
        if (
            profile.duplicate_probability
            and self.rng.random() < profile.duplicate_probability
        ):
            duplicates = 1
            self.duplicated += 1
        extra_ms = 0.0
        if profile.delay_probability and self.rng.random() < profile.delay_probability:
            extra_ms += self.rng.uniform(*DELAY_MS)
            self.delayed += 1
        if (
            profile.reorder_probability
            and self.rng.random() < profile.reorder_probability
        ):
            extra_ms += self.rng.uniform(*REORDER_MS)
            self.reordered += 1
        extra_ticks = ticks_from_milliseconds(extra_ms) if extra_ms else 0
        if extra_ticks and self._m_delay is not None:
            self._m_delay.observe(extra_ticks)
        if not duplicates and not extra_ticks:
            return NO_FAULT
        return FaultDecision(extra_delay_ticks=extra_ticks, duplicates=duplicates)

    def __repr__(self) -> str:
        return (
            f"LANFaultInjector(profile={self.profile.name!r}, "
            f"decisions={self.decisions}, dropped={self.dropped})"
        )
