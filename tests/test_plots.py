"""SVG chart generation tests (structure only, no rendering)."""

import math

from dpcopt.plots import line_chart, write_chart


def test_line_chart_basic_structure():
    svg = line_chart([0.0, 1.0, 2.0], [1.0, 4.0, 9.0], "t", "x", "y")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg
    assert ">t<" in svg and ">x<" in svg and ">y<" in svg


def test_log_axis_drops_nonpositive_points():
    svg = line_chart(
        [0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, -5.0, 10.0],
        "t", "x", "y",
    )
    # Two plottable points survive; the chart still renders a line.
    assert "<polyline" in svg


def test_nonfinite_points_are_skipped():
    svg = line_chart(
        [0.0, 1.0, 2.0],
        [1.0, math.nan, math.inf],
        "t", "x", "y",
    )
    assert "<polyline" in svg


def test_empty_series_falls_back_to_message():
    svg = line_chart([], [], "t", "x", "y")
    assert "no plottable points" in svg
    assert "<polyline" not in svg


def test_write_chart(tmp_path):
    path = tmp_path / "chart.svg"
    write_chart(path, line_chart([0.0, 1.0], [1.0, 2.0], "t", "x", "y"))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg")
