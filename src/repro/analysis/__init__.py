"""Statistics and plain-text reporting helpers for the experiments."""

from .curves import Series, render_curves
from .stats import (
    EmpiricalCDF,
    Summary,
    proportion_ci95,
    relative_error,
    summarize,
)
from .tables import render_comparison, render_table

__all__ = [
    "Series",
    "render_curves",
    "EmpiricalCDF",
    "Summary",
    "proportion_ci95",
    "relative_error",
    "summarize",
    "render_comparison",
    "render_table",
]
