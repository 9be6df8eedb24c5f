"""Tests for table and curve rendering."""

from __future__ import annotations

import pytest

from repro.analysis.curves import Series, render_curves
from repro.analysis.tables import render_comparison, render_table


class TestRenderTable:
    def test_contains_cells(self):
        text = render_table(["name", "value"], [["alpha", 1], ["beta", 22]])
        assert "alpha" in text and "22" in text

    def test_title(self):
        text = render_table(["a"], [["x"]], title="My Table")
        assert text.startswith("My Table")

    def test_column_alignment_width(self):
        text = render_table(["h"], [["looooooong"], ["s"]])
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1  # all rows same width

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_align_right_length_checked(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x"]], align_right=[True, False])


class TestRenderComparison:
    def test_relative_error_column(self):
        text = render_comparison("t", [("case", 1.1, 1.0)])
        assert "10.0%" in text

    def test_missing_reference(self):
        text = render_comparison("t", [("case", 1.1, None)])
        assert "—" in text

    def test_unit_suffix(self):
        text = render_comparison("t", [("case", 1.5, 1.5)], unit="s")
        assert "1.5000s" in text


class TestRenderCurves:
    def test_basic_plot(self):
        grid = [0.0, 1.0, 2.0, 3.0]
        series = [Series("up", (0.0, 0.3, 0.7, 1.0))]
        text = render_curves(grid, series, title="Plot")
        assert text.startswith("Plot")
        assert "legend: 1=up" in text
        assert "1.00 |" in text and "0.00 |" in text

    def test_multiple_series_glyphs(self):
        grid = [0.0, 1.0]
        series = [Series("a", (0.0, 1.0)), Series("b", (1.0, 0.0))]
        text = render_curves(grid, series)
        assert "1=a" in text and "2=b" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_curves([0.0, 1.0], [Series("a", (0.0,))])

    def test_no_series_rejected(self):
        with pytest.raises(ValueError):
            render_curves([0.0], [])

    def test_values_clamped_to_range(self):
        grid = [0.0, 1.0]
        series = [Series("a", (-5.0, 5.0))]
        text = render_curves(grid, series)  # must not raise
        assert "legend" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            Series("a", ())
