"""Configuration for the end-to-end BIPS simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.bluetooth.scan import PhaseMode, ResponseMode, ScanConfig

from .scheduler import MasterSchedulingPolicy


@dataclass(frozen=True)
class BIPSConfig:
    """All knobs of a full-system BIPS simulation.

    Defaults follow the paper: room-granule tracking with a two-miss
    absence threshold.  Every workstation runs the §5 scheduling policy
    (3.84 s inquiry per 15.4 s cycle).  Walking speeds (pedestrians in
    the [1.1, 1.5] m/s band) and LAN latency (a sub-millisecond office
    LAN) are those of :class:`~repro.mobility.walker.BuildingWalker` and
    :class:`~repro.lan.transport.LANTransport`.  Workstations push
    through the transport's reliable path (bounded retransmission with
    exponential backoff) exactly when the simulation runs under a fault
    plan; otherwise they keep the paper's fire-and-forget deltas.
    """

    #: The §5 policy every workstation runs; not a field.
    policy: ClassVar[MasterSchedulingPolicy] = MasterSchedulingPolicy()

    seed: int = 20030101
    miss_threshold: int = 2
    lan_loss_probability: float = 0.0
    dwell_low_seconds: float = 20.0
    dwell_high_seconds: float = 120.0
    #: Soft-state refresh: every N cycles a workstation re-asserts all
    #: its present devices, healing presence deltas lost on the LAN.
    #: 0 = pure delta reporting (the paper's design).
    refresh_interval_cycles: int = 0
    #: §2 enrolment: workstations page newly present devices during
    #: their serving window and join them to the piconet (up to the
    #: seven-slave AM_ADDR limit).  Tracking works without it; enabling
    #: it exercises the page/connection machinery end to end.
    enroll_users: bool = False
    #: Inter-piconet interference: piconets of adjacent rooms corrupt
    #: each other's inquiry responses with probability 1/79 per active
    #: neighbour (uncoordinated frequency hopping).  Off by default —
    #: the paper's one-piconet experiments have no neighbours.
    model_interference: bool = False
    #: Coverage overlap: a class-2 radio's 10 m disc does not stop at
    #: the wall, so a user near a boundary is sometimes heard by the
    #: *adjacent* room's workstation too.  For each room visit, with
    #: this fraction of the dwell the device also answers one random
    #: neighbouring piconet, making two workstations claim it — the
    #: stress case for the paper's one-room-per-device model.  0 (the
    #: default) is the paper's idealised room-granule radio.
    coverage_overlap_fraction: float = 0.0
    #: Mark a device's known position *stale* when no workstation has
    #: confirmed it for this long (the covering workstation may be
    #: down).  Queries still answer with the last known room but carry a
    #: staleness flag.  0 (the default) disables staleness marking.
    staleness_horizon_seconds: float = 0.0

    def handheld_scan_config(self) -> ScanConfig:
        """Scan behaviour of user devices in the end-to-end simulation.

        Handhelds listen continuously and re-back-off after every
        response: with at most a handful of users per room, contention
        is negligible and the sparser responses keep the event count
        (and hence runtime) low.  The Figure-2 experiment, which *is*
        about contention, uses the denser CONTINUOUS mode explicitly.
        """
        return ScanConfig.continuous(
            phase_mode=PhaseMode.SEQUENCE,
            response_mode=ResponseMode.BACKOFF_EACH,
        )

    def __post_init__(self) -> None:
        if self.miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1: {self.miss_threshold}")
        if not 0.0 <= self.dwell_low_seconds <= self.dwell_high_seconds:
            raise ValueError(
                f"invalid dwell band: [{self.dwell_low_seconds}, {self.dwell_high_seconds}]"
            )
        if not 0.0 <= self.lan_loss_probability < 1.0:
            raise ValueError(f"loss probability out of range: {self.lan_loss_probability}")
        if self.refresh_interval_cycles < 0:
            raise ValueError(
                f"negative refresh interval: {self.refresh_interval_cycles}"
            )
        if not 0.0 <= self.coverage_overlap_fraction <= 0.5:
            raise ValueError(
                f"overlap fraction out of range: {self.coverage_overlap_fraction}"
            )
        if self.staleness_horizon_seconds < 0:
            raise ValueError(
                f"negative staleness horizon: {self.staleness_horizon_seconds}"
            )
