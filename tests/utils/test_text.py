"""Tests for text rendering helpers."""

import numpy as np
import pytest

from repro.utils.text import format_table, render_bars, render_heatmap


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) >= 5 for line in lines)

    def test_title(self):
        out = format_table(["c"], [["v"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_cells_stringified(self):
        out = format_table(["n"], [[42]])
        assert "42" in out


class TestRenderBars:
    def test_scales_to_max(self):
        out = render_bars(["big", "half"], [1.0, 0.5], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_zero_values(self):
        out = render_bars(["a"], [0.0])
        assert "#" not in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0], width=0)

    def test_value_two_decimals(self):
        out = render_bars(["a"], [0.123456])
        assert out.endswith("| 0.12")


class TestRenderHeatmap:
    def test_row_zero_drawn_last(self):
        grid = np.zeros((2, 2))
        grid[0, 0] = 1.0  # smallest-y row -> bottom line
        out = render_heatmap(grid)
        lines = out.splitlines()
        assert lines[-1][0] != " "
        assert lines[0].strip() == ""

    def test_title_above_rows(self):
        out = render_heatmap(np.ones((2, 2)), title="T")
        assert out.splitlines() == ["T", "@@@@", "@@@@"]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(4))

    def test_all_zero_grid(self):
        out = render_heatmap(np.zeros((3, 3)))
        assert set(out.replace("\n", "")) <= {" "}
