"""Planar geometry for floor plans.

BIPS localises at room granularity (§2), so the geometry layer stays
deliberately small: an axis-aligned rectangle per room footprint, which
the occupancy renderer draws.  Everything is in metres.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle: a room footprint.

    ``Rect(0, 0, 13, 13)`` is a 13 m x 13 m room with its south-west
    corner at the origin.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(
                f"degenerate rectangle: "
                f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min
