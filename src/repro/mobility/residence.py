"""Piconet residence and crossing times.

§5 of the paper sizes the master's operational cycle from the time an
average walking user needs to cross a piconet: 20 m diameter at
1.3 m/s ≈ 15.4 s.  This module provides that calculation and the
tracking load it implies.
"""

from __future__ import annotations

from .speeds import MEAN_WALKING_SPEED_MPS

#: Coverage diameter of a BIPS piconet (§5: "about 20m").
PICONET_DIAMETER_M = 20.0


def crossing_time_seconds(
    diameter_m: float = PICONET_DIAMETER_M,
    speed_mps: float = MEAN_WALKING_SPEED_MPS,
) -> float:
    """The paper's §5 estimate: diameter / mean walking speed.

    >>> round(crossing_time_seconds(), 1)
    15.4
    """
    if diameter_m <= 0:
        raise ValueError(f"diameter must be positive: {diameter_m}")
    if speed_mps <= 0:
        raise ValueError(f"speed must be positive: {speed_mps}")
    return diameter_m / speed_mps


def tracking_load_fraction(
    inquiry_window_seconds: float, operational_cycle_seconds: float
) -> float:
    """Fraction of the master's cycle spent on discovery (§5: ≈24 %)."""
    if inquiry_window_seconds < 0:
        raise ValueError(f"negative inquiry window: {inquiry_window_seconds}")
    if operational_cycle_seconds <= 0:
        raise ValueError(f"cycle must be positive: {operational_cycle_seconds}")
    if inquiry_window_seconds > operational_cycle_seconds:
        raise ValueError("inquiry window longer than the operational cycle")
    return inquiry_window_seconds / operational_cycle_seconds
