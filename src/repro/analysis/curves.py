"""ASCII curve plotting for figure reproductions.

Renders probability-vs-time curves (Figure 2 of the paper) as terminal
graphics, so the benchmark harness can show the reproduced figure
without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Series:
    """One labelled curve: y-values on a shared x-grid."""

    label: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"series {self.label!r} is empty")


_GLYPHS = "1234567890abcdefghijklmnop"

#: Canvas size in characters: plot rows by plot columns.
_HEIGHT = 16
_WIDTH = 72


def render_curves(
    grid: Sequence[float],
    series: Sequence[Series],
    title: str = "",
) -> str:
    """Render probability curves on a character canvas.

    The y axis spans [0, 1]; values outside it are clamped.  Each series
    gets a glyph (its index); overlapping points show the later series.
    The legend maps glyphs back to labels.
    """
    if not series:
        raise ValueError("no series to plot")
    if any(len(s.values) != len(grid) for s in series):
        raise ValueError("series length does not match grid")

    canvas = [[" "] * _WIDTH for _ in range(_HEIGHT)]
    x_lo, x_hi = grid[0], grid[-1]
    x_span = (x_hi - x_lo) or 1.0

    for index, s in enumerate(series):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x_value, y_value in zip(grid, s.values):
            col = round((x_value - x_lo) / x_span * (_WIDTH - 1))
            clamped = min(max(y_value, 0.0), 1.0)
            row = round((1.0 - clamped) * (_HEIGHT - 1))
            canvas[row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(canvas):
        y_value = 1.0 - row_index / (_HEIGHT - 1)
        lines.append(f"{y_value:5.2f} |" + "".join(row))
    lines.append(" " * 6 + "+" + "-" * _WIDTH)
    left = f"{x_lo:g}"
    right = f"{x_hi:g}"
    padding = _WIDTH - len(left) - len(right)
    lines.append(" " * 7 + left + " " * max(1, padding) + right)
    lines.append("      P vs time (s)")
    legend = "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={s.label}" for i, s in enumerate(series)
    )
    lines.append("      legend: " + legend)
    return "\n".join(lines)
