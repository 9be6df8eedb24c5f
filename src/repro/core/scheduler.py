"""The master scheduling policy of §5.

The workstation radio splits its time between device discovery and
serving connected slaves.  The paper derives the split from two
quantities:

* the inquiry window needed to discover ≈95 % of up to 20 slaves:
  **3.84 s** (one full 2.56 s train dwell catches every same-train
  slave, plus 1.28 s on the other train catches ≈90 % of the rest);
* the mean time a walking user spends crossing a piconet:
  **20 m / 1.3 m/s ≈ 15.4 s**, which bounds the operational cycle if
  every crossing user is to meet at least one inquiry window.

The resulting tracking load is 3.84 / 15.4 ≈ **24 %** of the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bluetooth.constants import TICKS_PER_TRAIN_DWELL
from repro.bluetooth.hopping import InquiryTransmitSchedule, periodic_inquiry
from repro.mobility.residence import crossing_time_seconds
from repro.mobility.speeds import MEAN_WALKING_SPEED_MPS
from repro.sim.clock import ticks_from_seconds


@dataclass(frozen=True)
class MasterSchedulingPolicy:
    """How a BIPS workstation divides its operational cycle.

    Every window inquires on train A first and alternates trains every
    2.56 s dwell.
    """

    inquiry_window_seconds: float = 3.84
    operational_cycle_seconds: float = 15.4

    def __post_init__(self) -> None:
        if self.inquiry_window_seconds <= 0:
            raise ValueError(
                f"inquiry window must be positive: {self.inquiry_window_seconds}"
            )
        if self.inquiry_window_seconds > self.operational_cycle_seconds:
            raise ValueError(
                f"inquiry window {self.inquiry_window_seconds}s exceeds the "
                f"cycle {self.operational_cycle_seconds}s"
            )

    @classmethod
    def from_building_parameters(
        cls,
        coverage_diameter_m: float = 20.0,
        mean_walking_speed_mps: float = MEAN_WALKING_SPEED_MPS,
        inquiry_window_seconds: float = 3.84,
    ) -> "MasterSchedulingPolicy":
        """Derive the §5 policy from physical parameters.

        The operational cycle equals the mean piconet crossing time so
        that every passing user overlaps at least one inquiry window.
        """
        cycle = crossing_time_seconds(coverage_diameter_m, mean_walking_speed_mps)
        return cls(
            inquiry_window_seconds=inquiry_window_seconds,
            operational_cycle_seconds=cycle,
        )

    @property
    def serving_window_seconds(self) -> float:
        """Time per cycle left for serving slave applications."""
        return self.operational_cycle_seconds - self.inquiry_window_seconds

    @property
    def tracking_load(self) -> float:
        """Fraction of the cycle spent discovering (§5: ≈0.24)."""
        return self.inquiry_window_seconds / self.operational_cycle_seconds

    @property
    def inquiry_window_ticks(self) -> int:
        """Inquiry window in ticks."""
        return ticks_from_seconds(self.inquiry_window_seconds)

    @property
    def operational_cycle_ticks(self) -> int:
        """Operational cycle in ticks."""
        return ticks_from_seconds(self.operational_cycle_seconds)

    def covers_full_dwell(self) -> bool:
        """Whether the window spans at least one full train dwell.

        A window shorter than 2.56 s cannot even guarantee same-train
        discovery, which is why the paper anchors the policy at
        3.84 s = 1.5 dwells.
        """
        return self.inquiry_window_ticks >= TICKS_PER_TRAIN_DWELL

    def build_schedule(self, start_tick: int = 0) -> InquiryTransmitSchedule:
        """Materialise the periodic transmit schedule for one master.

        ``start_tick`` staggers neighbouring workstations so their
        presence reports do not all burst onto the LAN simultaneously.
        """
        return periodic_inquiry(
            window_ticks=self.inquiry_window_ticks,
            period_ticks=self.operational_cycle_ticks,
            start=start_tick,
        )

    def describe(self) -> str:
        """One-line summary matching the §5 wording."""
        return (
            f"inquiry {self.inquiry_window_seconds:.2f}s + serving "
            f"{self.serving_window_seconds:.2f}s per {self.operational_cycle_seconds:.1f}s "
            f"cycle ({self.tracking_load * 100:.1f}% tracking load)"
        )
