"""Pedestrian speed models.

The paper's assumptions (§2, §5):

* mobile users move at a *maximum* of 2 m/s;
* a user "normally walks with a speed in the range [0, 1.5] meters per
  second";
* the average *walking* (non-stationary) speed used in the §5 sizing is
  1.3 m/s — "20m : 1.3m/s" gives the 15.4 s piconet crossing time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import RandomStream

#: Hard cap from §2: BIPS need not track anything faster than this.
MAX_TRACKED_SPEED_MPS = 2.0

#: The mean walking speed the paper divides by (§5).
MEAN_WALKING_SPEED_MPS = 1.3


@dataclass(frozen=True)
class PedestrianSpeedModel:
    """Draws pedestrian speeds consistent with the paper's §5 numbers.

    Walking speeds are uniform on ``[walk_low, walk_high]``, whose
    default (1.1..1.5 m/s) averages to the paper's 1.3 m/s while staying
    inside the [0, 1.5] band.
    """

    walk_low_mps: float = 1.1
    walk_high_mps: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.walk_low_mps <= self.walk_high_mps:
            raise ValueError(
                f"invalid walking band: [{self.walk_low_mps}, {self.walk_high_mps}]"
            )
        if self.walk_high_mps > MAX_TRACKED_SPEED_MPS:
            raise ValueError(
                f"walking speed {self.walk_high_mps} exceeds the tracked "
                f"maximum {MAX_TRACKED_SPEED_MPS}"
            )

    @property
    def mean_walking_speed_mps(self) -> float:
        """Mean of the walking-speed distribution."""
        return (self.walk_low_mps + self.walk_high_mps) / 2.0

    def draw_walking_speed(self, rng: RandomStream) -> float:
        """One walking-speed sample."""
        return rng.uniform(self.walk_low_mps, self.walk_high_mps)
