"""The vectorised polyline rasteriser against the per-segment loop it replaced.

``loop_draw_polyline`` is the rasteriser as it stood before
``Canvas.draw_polyline`` computed every segment in one pass: one
``np.linspace`` DDA walk per segment.  It lives here as the oracle; the
property test requires the two to agree bitwise, and the golden digests
(recorded from the loop implementation itself) catch drift that a
self-consistency check cannot.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charts import ChartSpec, render_chart_for_table
from repro.charts.canvas import Canvas
from repro.data.synth import SynthConfig, synth_table

GOLDEN = Path(__file__).parent / "fixtures" / "chart_fingerprints.json"

HEIGHT, WIDTH = 24, 40


def loop_draw_segment(canvas, row0, col0, row1, col1, intensity, class_id, instance, thickness):
    steps = int(max(abs(row1 - row0), abs(col1 - col0), 1))
    t = np.linspace(0.0, 1.0, steps + 1)
    rows = np.round(row0 + (row1 - row0) * t).astype(np.int64)
    cols = np.round(col0 + (col1 - col0) * t).astype(np.int64)
    canvas._paint(rows, cols, intensity, class_id, instance)
    for offset in range(1, thickness):
        canvas._paint(rows + offset, cols, intensity, class_id, instance)
        canvas._paint(rows - offset, cols, intensity, class_id, instance)


def loop_draw_polyline(canvas, rows, cols, intensity, class_id, instance, thickness):
    if len(rows) == 1:
        canvas.draw_pixel(int(rows[0]), int(cols[0]), intensity, class_id, instance)
        return
    for i in range(len(rows) - 1):
        loop_draw_segment(
            canvas,
            int(rows[i]),
            int(cols[i]),
            int(rows[i + 1]),
            int(cols[i + 1]),
            intensity,
            class_id,
            instance,
            thickness,
        )


def assert_same_canvas(actual: Canvas, expected: Canvas) -> None:
    assert np.array_equal(actual.image, expected.image)
    assert actual.image.dtype == expected.image.dtype
    assert np.array_equal(actual.class_mask, expected.class_mask)
    assert list(actual.instance_masks) == list(expected.instance_masks)
    for name, mask in expected.instance_masks.items():
        assert np.array_equal(actual.instance_masks[name], mask)


# Points reach well outside the canvas, and the small alphabet of moves makes
# repeated points and exactly vertical / horizontal / steep runs common.
_coordinate = st.integers(min_value=-12, max_value=52)
_free_points = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=12)
_moves = st.sampled_from([(0, 0), (0, 1), (1, 0), (-7, 0), (0, 9), (-15, 1), (13, -2), (3, 3)])


@st.composite
def _walks(draw):
    row, col = draw(_coordinate), draw(_coordinate)
    points = [(row, col)]
    for d_row, d_col in draw(st.lists(_moves, max_size=12)):
        row, col = row + d_row, col + d_col
        points.append((row, col))
    return points


_polylines = st.one_of(_free_points, _walks())
_line = st.tuples(
    _polylines,
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.4, 1.0]),
    st.integers(min_value=1, max_value=4),
)


class TestPolylineParity:
    @given(st.lists(_line, min_size=1, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_vectorised_equals_segment_loop(self, lines):
        actual, expected = Canvas(HEIGHT, WIDTH), Canvas(HEIGHT, WIDTH)
        # Lines are drawn in order onto one canvas: the later one overwrites
        # the class of shared pixels and keeps the brighter ink.
        for index, (points, thickness, intensity, class_id) in enumerate(lines):
            rows = np.array([p[0] for p in points])
            cols = np.array([p[1] for p in points])
            instance = f"line_{index}"
            actual.draw_polyline(rows, cols, intensity, class_id, instance, thickness)
            loop_draw_polyline(expected, rows, cols, intensity, class_id, instance, thickness)
        assert_same_canvas(actual, expected)

    def test_chart_scale_line(self):
        """A 256-point line over the default plot area, every thickness."""
        rng = np.random.default_rng(5)
        rows = rng.integers(6, 110, size=256)
        cols = np.round(np.linspace(30, 233, 256)).astype(int)
        for thickness in (1, 2, 3):
            actual, expected = Canvas(120, 240), Canvas(120, 240)
            actual.draw_polyline(rows, cols, 1.0, 1, "line_0", thickness)
            loop_draw_polyline(expected, rows, cols, 1.0, 1, "line_0", thickness)
            assert_same_canvas(actual, expected)

    def test_segment_is_a_two_point_polyline(self):
        actual, expected = Canvas(HEIGHT, WIDTH), Canvas(HEIGHT, WIDTH)
        actual.draw_segment(-3, 2, 30, 17, 1.0, 2, "s", thickness=2)
        loop_draw_segment(expected, -3, 2, 30, 17, 1.0, 2, "s", 2)
        assert_same_canvas(actual, expected)

    def test_empty_polyline_draws_nothing(self):
        canvas = Canvas(HEIGHT, WIDTH)
        canvas.draw_polyline(np.array([], dtype=int), np.array([], dtype=int), instance="x")
        assert not canvas.image.any() and not canvas.instance_masks


def test_golden_chart_fingerprints():
    """Digests recorded from the segment-loop rasteriser (see the fixture)."""
    golden = json.loads(GOLDEN.read_text())
    config = SynthConfig(num_tables=len(golden["charts"]), **golden["synth_config"])
    for entry in golden["charts"]:
        table = synth_table(entry["table"], config)
        assert table.num_columns == entry["columns"]
        chart = render_chart_for_table(
            table,
            table.column_names,
            spec=ChartSpec(line_thickness=entry["line_thickness"]),
        )
        assert chart.fingerprint() == entry["fingerprint"], entry
