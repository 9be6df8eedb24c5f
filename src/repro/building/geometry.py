"""Planar geometry for floor plans.

BIPS localises at room granularity (§2), so the geometry layer stays
deliberately small: points, axis-aligned rectangles, and the distance
queries the coverage planner needs (how far is the farthest corner of a
room from its workstation?).  Everything is in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A position on a floor, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``, in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


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

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        """Corner-to-corner distance — the worst case a radio must span."""
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from the south-west."""
        return (
            Point(self.x_min, self.y_min),
            Point(self.x_max, self.y_min),
            Point(self.x_max, self.y_max),
            Point(self.x_min, self.y_max),
        )

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside or on the boundary."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def clamp(self, point: Point) -> Point:
        """The nearest point inside the rectangle."""
        return Point(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )
