"""The array-pass visual-element extractor against the loops it replaced.

The ``loop_*`` functions are the query side of a cold query as it stood
before it became whole-array passes: ``_trace_from_mask`` walking the plot
column by column, the ``decode_tick_values`` band walk, the per-cell
per-glyph ``match_text`` and ``line_segment_features`` pooling one
zero-filled segment copy at a time.  They live here verbatim as the oracles.
The property tests require bitwise equality — ``tobytes()`` on traces, so NaN
positions count — and the golden digests (recorded from the loop
implementation itself, before it moved) catch drift that a self-consistency
check cannot.

The fixture also holds entries with ``"use_oracle_instances": false``: digests
of a model-free line tracker that has since been deleted.  Only the entries
read from the renderer's per-line masks (``true``) are checked.  Re-record
the fixture with ``python tests/test_extractor_parity.py`` with
``PYTHONPATH`` pointing at the ``src`` of the implementation to record from
(it writes the per-line-mask entries only).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charts import ChartSpec, render_chart_for_table, render_line_chart
from repro.charts.spec import MASK_TICK_LABEL, MASK_Y_TICK
from repro.charts.ticks import GLYPH_HEIGHT, GLYPH_SPACING, GLYPH_WIDTH, GLYPHS
from repro.charts.ticks import match_text, render_text
from repro.data import DataSeries, UnderlyingData
from repro.data.synth import SynthConfig, synth_table
from repro.fcm import FCMConfig
from repro.fcm.preprocessing import line_segment_features, prepare_chart_input
from repro.vision import extractor as extractor_module
from repro.vision import (
    VisualElementExtractor,
    decode_tick_values,
    rows_to_values,
    tick_pixel_rows,
)
from repro.vision.elements import ExtractedLine, VisualElements

GOLDEN = Path(__file__).parent / "fixtures" / "visual_elements.json"


# --------------------------------------------------------------------------- #
# The loops, verbatim
# --------------------------------------------------------------------------- #
def loop_match_text(bitmap: np.ndarray) -> str:
    if bitmap.size == 0:
        return ""
    binary = (np.asarray(bitmap) > 0.5).astype(np.int8)
    height, width = binary.shape
    if height != GLYPH_HEIGHT:
        raise ValueError(f"expected bitmap height {GLYPH_HEIGHT}, got {height}")
    stride = GLYPH_WIDTH + GLYPH_SPACING
    chars: List[str] = []
    col = 0
    while col + GLYPH_WIDTH <= width:
        cell = binary[:, col : col + GLYPH_WIDTH]
        if cell.sum() == 0 and not chars:
            col += stride
            continue
        best_char, best_dist = None, None
        for char, glyph in GLYPHS.items():
            dist = int(np.abs(cell - glyph).sum())
            if best_dist is None or dist < best_dist:
                best_char, best_dist = char, dist
        chars.append(best_char or "")
        col += stride
    return "".join(chars)


def loop_decode_tick_values(image: np.ndarray, class_mask: np.ndarray) -> List[float]:
    label_rows, label_cols = np.nonzero(class_mask == MASK_TICK_LABEL)
    if label_rows.size == 0:
        return []
    values: List[float] = []
    # Group label pixels into bands of consecutive rows.
    unique_rows = np.unique(label_rows)
    bands: List[Tuple[int, int]] = []
    band_start = unique_rows[0]
    prev = unique_rows[0]
    for row in unique_rows[1:]:
        if row - prev > 1:
            bands.append((band_start, prev))
            band_start = row
        prev = row
    bands.append((band_start, prev))

    for top, bottom in bands:
        in_band = (label_rows >= top) & (label_rows <= bottom)
        cols = label_cols[in_band]
        left, right = cols.min(), cols.max()
        crop = (image[top : top + GLYPH_HEIGHT, left : right + 1] > 0.5).astype(np.int8)
        if crop.shape[0] < GLYPH_HEIGHT:
            crop = np.pad(crop, ((0, GLYPH_HEIGHT - crop.shape[0]), (0, 0)))
        text = loop_match_text(crop)
        try:
            values.append(float(text))
        except ValueError:
            continue
    return values


def loop_tick_pixel_rows(class_mask: np.ndarray) -> List[int]:
    rows, _ = np.nonzero(class_mask == MASK_Y_TICK)
    if rows.size == 0:
        return []
    unique = np.unique(rows)
    groups: List[List[int]] = [[int(unique[0])]]
    for row in unique[1:]:
        if row - groups[-1][-1] <= 1:
            groups[-1].append(int(row))
        else:
            groups.append([int(row)])
    return [int(np.mean(g)) for g in groups]


def loop_trace_from_mask(
    mask: np.ndarray, plot_bounds: Tuple[int, int, int, int]
) -> np.ndarray:
    top, bottom, left, right = plot_bounds
    width = right - left
    trace = np.full(width, np.nan)
    for offset in range(width):
        rows = np.nonzero(mask[top:bottom, left + offset])[0]
        if rows.size:
            trace[offset] = float(np.mean(rows)) + top
    return trace


def loop_extract(chart) -> VisualElements:
    """``VisualElementExtractor.extract`` as it was: the tick labels decoded
    twice, every trace a walk over the columns (row ``plot_bottom``, where the
    axis minimum is drawn, included)."""
    spec = chart.spec
    plot_bounds = (spec.plot_top, spec.plot_bottom, spec.plot_left, spec.plot_right)
    trace_bounds = (spec.plot_top, spec.plot_bottom + 1, spec.plot_left, spec.plot_right)
    class_mask = chart.class_mask

    values = loop_decode_tick_values(chart.image, class_mask)
    y_range = (
        (float(min(values)), float(max(values))) if len(values) >= 2 else chart.axis_range
    )

    lines: List[ExtractedLine] = []
    for mask in chart.line_masks:
        trace_rows = loop_trace_from_mask(mask, trace_bounds)
        values = rows_to_values(trace_rows, y_range, spec.plot_top, spec.plot_bottom)
        lines.append(ExtractedLine(mask=mask, trace_rows=trace_rows, trace_values=values))

    return VisualElements(
        lines=lines,
        y_range=y_range,
        tick_values=loop_decode_tick_values(chart.image, class_mask),
        plot_bounds=plot_bounds,
    )


def loop_pool2d(image: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool ``image`` by ``factor`` in both dimensions (crop remainder)."""
    if factor == 1:
        return image
    height, width = image.shape
    new_h, new_w = height // factor, width // factor
    if new_h == 0 or new_w == 0:
        return image
    cropped = image[: new_h * factor, : new_w * factor]
    return cropped.reshape(new_h, factor, new_w, factor).mean(axis=(1, 3))


def loop_line_segment_features(line_image: np.ndarray, config: FCMConfig) -> np.ndarray:
    spec = config.chart_spec
    plot = line_image[spec.plot_top : spec.plot_bottom, spec.plot_left : spec.plot_right]
    n1 = config.num_chart_segments
    p1 = config.line_segment_width
    features = np.zeros((n1, config.chart_segment_feature_dim))
    for seg_idx in range(n1):
        left = seg_idx * p1
        right = min(left + p1, plot.shape[1])
        segment = np.zeros((plot.shape[0], p1))
        segment[:, : right - left] = plot[:, left:right]
        pooled = loop_pool2d(segment, config.image_pool)
        flat = pooled.ravel()
        features[seg_idx, : flat.shape[0]] = flat[: config.chart_segment_feature_dim]
    return features


# --------------------------------------------------------------------------- #
# Comparisons
# --------------------------------------------------------------------------- #
def assert_same_traces(actual: List[np.ndarray], expected: List[np.ndarray]) -> None:
    assert len(actual) == len(expected)
    for ours, theirs in zip(actual, expected):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def assert_same_elements(actual: VisualElements, expected: VisualElements) -> None:
    assert actual.y_range == expected.y_range
    assert actual.tick_values == expected.tick_values
    assert actual.plot_bounds == expected.plot_bounds
    assert_same_traces(
        [line.trace_rows for line in actual.lines],
        [line.trace_rows for line in expected.lines],
    )
    assert_same_traces(
        [line.trace_values for line in actual.lines],
        [line.trace_values for line in expected.lines],
    )
    for ours, theirs in zip(actual.lines, expected.lines):
        assert np.array_equal(ours.mask, theirs.mask)


# --------------------------------------------------------------------------- #
# Random masks: lines that wander, thicken, break off, cross, touch the plot's
# first and last rows and spill over its bounds, plus stray ink anywhere.
# --------------------------------------------------------------------------- #
_STEPS = st.sampled_from([-3, -1, 0, 0, 1, 3, None])  # None: no ink in this column


@st.composite
def _line_masks(draw):
    height = draw(st.integers(min_value=10, max_value=26))
    width = draw(st.integers(min_value=10, max_value=36))
    top = draw(st.integers(min_value=0, max_value=3))
    bottom = height - draw(st.integers(min_value=0, max_value=3))
    left = draw(st.integers(min_value=0, max_value=4))
    right = width - draw(st.integers(min_value=0, max_value=4))
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = draw(st.integers(min_value=0, max_value=height - 1))
        thickness = draw(st.integers(min_value=1, max_value=3))
        for col, step in enumerate(draw(st.lists(_STEPS, min_size=width, max_size=width))):
            if step is None:
                continue
            row = min(max(row + step, 0), height - 1)
            mask[row : row + thickness, col] = True
    specks = st.tuples(
        st.integers(min_value=0, max_value=height - 1),
        st.integers(min_value=0, max_value=width - 1),
    )
    for row, col in draw(st.lists(specks, max_size=8)):
        mask[row, col] = True
    return mask, (top, bottom, left, right)


class TestTraceParity:
    @given(_line_masks())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_trace_from_mask_equals_column_walk(self, case):
        mask, plot_bounds = case
        actual = VisualElementExtractor._trace_from_mask(mask, plot_bounds)
        assert_same_traces([actual], [loop_trace_from_mask(mask, plot_bounds)])

    def test_empty_mask(self):
        mask = np.zeros((12, 20), dtype=bool)
        bounds = (1, 11, 2, 18)
        trace = VisualElementExtractor._trace_from_mask(mask, bounds)
        assert trace.shape == (16,) and np.isnan(trace).all()
        assert trace.tobytes() == loop_trace_from_mask(mask, bounds).tobytes()

    def test_ink_outside_the_plot_is_ignored(self):
        mask = np.zeros((12, 20), dtype=bool)
        mask[0, :] = mask[11, :] = mask[:, 0] = mask[:, 19] = True
        bounds = (1, 11, 1, 19)
        assert np.isnan(VisualElementExtractor._trace_from_mask(mask, bounds)).all()

    def test_runs_touching_the_plot_edges(self):
        """Ink clipped by the plot's top or bottom bound counts only inside it."""
        bounds = (1, 11, 0, 8)
        masks = [np.zeros((12, 8), dtype=bool) for _ in range(3)]
        masks[0][0:3, 2] = True  # clipped by the top bound: rows 1-2 count
        masks[1][9:12, 2] = True  # clipped by the bottom bound: rows 9-10 count
        masks[2][1:11, 5] = True  # one run over the plot's whole height
        traces = [VisualElementExtractor._trace_from_mask(mask, bounds) for mask in masks]
        assert_same_traces(traces, [loop_trace_from_mask(mask, bounds) for mask in masks])
        assert traces[0][2] == 1.5 and traces[1][2] == 9.5 and traces[2][5] == 5.5
        assert np.isnan(traces[0][5]) and np.isnan(traces[2][2])

    def test_crossing_lines(self):
        """Each line is traced from its own mask, so a crossing swaps nothing."""
        cols = np.arange(30)
        rising = np.zeros((30, 30), dtype=bool)
        rising[29 - cols, cols] = True
        falling = np.zeros((30, 30), dtype=bool)
        falling[cols, cols] = True
        bounds = (0, 30, 0, 30)
        traces = [
            VisualElementExtractor._trace_from_mask(mask, bounds) for mask in (rising, falling)
        ]
        assert_same_traces(
            traces, [loop_trace_from_mask(mask, bounds) for mask in (rising, falling)]
        )
        assert traces[0].tolist() == (29.0 - cols).tolist()
        assert traces[1].tolist() == cols.astype(np.float64).tolist()

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4)),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_tick_pixel_rows_equal_band_walk(self, bands):
        """Tick marks 1-4 rows tall after 0-3 blank rows (0 joins the band above)."""
        mask = np.zeros((44, 6), dtype=np.int8)
        row = 0
        for gap, height in bands:
            mask[row + gap : row + gap + height, 1:4] = MASK_Y_TICK
            row += gap + height
        assert tick_pixel_rows(mask) == loop_tick_pixel_rows(mask)


# --------------------------------------------------------------------------- #
# Tick labels
# --------------------------------------------------------------------------- #
_ALPHABET = "".join(GLYPHS)
_labels = st.text(alphabet=_ALPHABET, min_size=1, max_size=8)
_flip = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=GLYPH_HEIGHT - 1),
    st.integers(min_value=0, max_value=GLYPH_WIDTH - 1),
)


def _noisy_label(text, leading_blanks, trailing_cols, flips) -> np.ndarray:
    """``text`` rendered after blank cells, with at most two flipped pixels in
    any one glyph cell."""
    stride = GLYPH_WIDTH + GLYPH_SPACING
    bitmap = np.hstack(
        [
            np.zeros((GLYPH_HEIGHT, leading_blanks * stride)),
            render_text(text),
            np.zeros((GLYPH_HEIGHT, trailing_cols)),
        ]
    )
    per_cell: dict = {}
    for cell, row, col in flips:
        if cell >= len(text) or per_cell.get(cell, 0) == 2:
            continue
        per_cell[cell] = per_cell.get(cell, 0) + 1
        at = (leading_blanks + cell) * stride + col
        bitmap[row, at] = 1.0 - bitmap[row, at]
    return bitmap


class TestMatchTextParity:
    @given(
        _labels,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.lists(_flip, max_size=10),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_noisy_labels(self, text, leading_blanks, trailing_cols, flips):
        bitmap = _noisy_label(text, leading_blanks, trailing_cols, flips)
        assert match_text(bitmap) == loop_match_text(bitmap)
        if not flips:
            assert match_text(bitmap)[: len(text)] == text

    @given(
        st.integers(min_value=0, max_value=21).flatmap(
            lambda width: st.lists(
                st.lists(st.booleans(), min_size=width, max_size=width),
                min_size=GLYPH_HEIGHT,
                max_size=GLYPH_HEIGHT,
            )
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_bitmaps(self, rows):
        bitmap = np.array(rows, dtype=float).reshape(GLYPH_HEIGHT, -1)
        assert match_text(bitmap) == loop_match_text(bitmap)

    def test_first_of_equally_close_glyphs_wins(self):
        cell = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH))
        cell[2, 1] = 1.0  # two pixels from "-" and from ".": GLYPHS lists "-" first
        bitmap = np.hstack([render_text("7"), np.zeros((GLYPH_HEIGHT, 1)), cell])
        assert match_text(bitmap) == loop_match_text(bitmap) == "7-"

    def test_only_leading_blank_cells_are_skipped(self):
        blank = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH + GLYPH_SPACING))
        bitmap = np.hstack([blank, blank, render_text("1"), blank[:, :1], blank, render_text("2")])
        assert match_text(bitmap) == loop_match_text(bitmap) == "1.2"
        assert match_text(np.hstack([blank, blank])) == loop_match_text(blank) == ""

    def test_wrong_height_is_rejected(self):
        with pytest.raises(ValueError):
            match_text(np.ones((4, 7)))


_stamp = st.tuples(
    st.integers(min_value=0, max_value=38),  # top row: the last ones clip at the image's end
    st.integers(min_value=0, max_value=20),
    _labels,
)


class TestTickDecodingParity:
    @given(st.lists(_stamp, max_size=6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_decode_equals_band_walk(self, stamps):
        """Labels stamped anywhere: bands that merge, overlap, share rows with
        another label or are cut off by the image's last row."""
        image = np.zeros((40, 60))
        class_mask = np.zeros((40, 60), dtype=np.int8)
        for top, left, text in stamps:
            bitmap = render_text(text)[: 40 - top, : 60 - left]
            region = image[top : top + bitmap.shape[0], left : left + bitmap.shape[1]]
            np.maximum(region, bitmap, out=region)
        class_mask[image > 0] = MASK_TICK_LABEL
        assert decode_tick_values(image, class_mask) == loop_decode_tick_values(
            image, class_mask
        )


# --------------------------------------------------------------------------- #
# Segment features
# --------------------------------------------------------------------------- #
_GEOMETRIES = [
    # (chart spec, P1, pool, max N1)
    (ChartSpec(), 60, 4, 16),  # the default: three full segments, 24 plot columns unused
    (ChartSpec(), 60, 1, 16),  # no pooling
    (ChartSpec(), 60, 7, 2),  # remainders cropped in both directions, N1 capped
    (ChartSpec(), 250, 4, 16),  # plot narrower than one segment: zero-filled tail
    (ChartSpec(), 3, 4, 16),  # segment narrower than the pool factor: not pooled
    (ChartSpec(width=64, height=30), 16, 16, 16),  # plot shorter than the pool factor
]


@pytest.mark.parametrize("spec, p1, pool, max_n1", _GEOMETRIES)
def test_segment_features_equal_per_segment_pooling(spec, p1, pool, max_n1):
    config = FCMConfig(
        chart_spec=spec, line_segment_width=p1, image_pool=pool, max_chart_segments=max_n1
    )
    rng = np.random.default_rng(p1 * 31 + pool)
    binary = (rng.random((spec.height, spec.width)) < 0.1).astype(np.float64)
    actual = line_segment_features(binary, config)
    expected = loop_line_segment_features(binary, config)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
    grey = rng.random((spec.height, spec.width))
    np.testing.assert_allclose(
        line_segment_features(grey, config),
        loop_line_segment_features(grey, config),
        rtol=0,
        atol=1e-12,
    )


# --------------------------------------------------------------------------- #
# Whole charts: the golden digests and the loop oracle
# --------------------------------------------------------------------------- #
SYNTH = dict(num_rows=256, max_columns=3, num_clusters=16, seed=1)
GOLDEN_CHARTS = [(table, thickness) for table in range(9) for thickness in (1, 2)]
LEDGER_CONFIG = FCMConfig(
    embed_dim=32,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=8,
    beta=2,
    dtype="float64",
)


def _synth_chart(table_index: int, thickness: int = 1, **spec):
    config = SynthConfig(num_tables=table_index + 1, **SYNTH)
    table = synth_table(table_index, config)
    return render_chart_for_table(
        table, table.column_names, spec=ChartSpec(line_thickness=thickness, **spec)
    )


def _digest(*arrays) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def elements_digests(elements: VisualElements, chart_input) -> dict:
    return {
        "lines": elements.num_lines,
        "trace_rows": _digest(*(line.trace_rows for line in elements.lines)),
        "trace_values": _digest(*(line.trace_values for line in elements.lines)),
        "y_range": _digest(elements.y_range),
        "tick_values": _digest(elements.tick_values),
        "segment_features": _digest(chart_input.segment_features),
    }


def golden_entries(extract) -> List[dict]:
    """One entry per golden chart; ``extract(chart)`` supplies the visual
    elements."""
    entries = []
    for table_index, thickness in GOLDEN_CHARTS:
        chart = _synth_chart(table_index, thickness)
        elements = extract(chart)
        entries.append(
            {
                "table": table_index,
                "line_thickness": thickness,
                "chart_lines": chart.num_lines,
                "use_oracle_instances": True,
                **elements_digests(
                    elements, prepare_chart_input(chart, elements, LEDGER_CONFIG)
                ),
            }
        )
    return entries


def golden_mask_entries() -> List[dict]:
    """The fixture's entries read from the renderer's per-line masks."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["synth_config"] == SYNTH
    return [entry for entry in golden["charts"] if entry["use_oracle_instances"]]


def _src_extract(chart) -> VisualElements:
    return VisualElementExtractor().extract(chart)


class TestWholeCharts:
    def test_golden_digests(self):
        """Digests recorded from the column-loop extractor (see the fixture)."""
        golden = golden_mask_entries()
        assert {entry["chart_lines"] for entry in golden} == {1, 2, 3}
        actual = golden_entries(_src_extract)
        assert len(actual) == len(golden) == len(GOLDEN_CHARTS)
        for ours, theirs in zip(actual, golden):
            assert ours == theirs

    def test_extract_equals_loop_extract(self):
        for table_index in range(9, 15):
            for thickness, spec in ((1, {}), (3, {}), (2, dict(width=131, height=77))):
                chart = _synth_chart(table_index, thickness, **spec)
                assert_same_elements(_src_extract(chart), loop_extract(chart))
        # Lines on the axis minimum, which is drawn on row ``plot_bottom``.
        x = np.arange(40, dtype=float)
        at_bottom = render_line_chart(
            UnderlyingData([DataSeries(x, np.full(40, 1.0)), DataSeries(x, 1.0 + x / 13)])
        )
        assert at_bottom.axis_range[0] == 1.0
        assert_same_elements(_src_extract(at_bottom), loop_extract(at_bottom))

    def test_loop_oracles_reproduce_the_golden_digests(self):
        """The oracles above are the implementation the fixture was recorded from."""
        assert golden_entries(loop_extract) == golden_mask_entries()


# --------------------------------------------------------------------------- #
# Call shape and speed
# --------------------------------------------------------------------------- #
class TestCallShape:
    def test_tick_labels_are_decoded_once_per_extract(self, monkeypatch):
        calls = []
        real = extractor_module.decode_tick_values

        def spy(image, class_mask):
            calls.append(1)
            return real(image, class_mask)

        monkeypatch.setattr(extractor_module, "decode_tick_values", spy)
        elements = _src_extract(_synth_chart(0))
        assert len(calls) == 1
        assert elements.y_range == (min(elements.tick_values), max(elements.tick_values))

    def test_numpy_calls_do_not_grow_with_plot_width(self, monkeypatch):
        """The column loops called ``np.nonzero`` once or twice per plot
        column; the array passes call it a few times per line."""
        real = np.nonzero
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        charts = [_synth_chart(0, width=width) for width in (240, 480)]
        monkeypatch.setattr(np, "nonzero", counting)
        per_chart = []
        for chart in charts:
            assert chart.num_lines == 3
            calls.clear()
            assert _src_extract(chart).num_lines == 3
            per_chart.append(len(calls))
        assert per_chart[0] == per_chart[1] <= 3 * 3


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="perf regression thresholds disabled via REPRO_SKIP_PERF_TESTS=1 "
    "(constrained or heavily-loaded machine)",
)
class TestExtractorPerf:
    def test_array_passes_beat_the_column_loops(self):
        """On the ledger's chart geometry (default spec, 256-row synth tables)."""
        charts = [_synth_chart(index) for index in range(6)]

        def best_of(extract, repeats=5):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                for chart in charts:
                    extract(chart)
                timings.append(time.perf_counter() - start)
            return min(timings)

        loop_seconds = best_of(loop_extract, repeats=3)
        array_seconds = best_of(_src_extract)
        speedup = loop_seconds / array_seconds
        assert speedup >= 4.0, (
            f"array-pass extract only {speedup:.2f}x faster than the column loops "
            f"({loop_seconds * 1e3:.1f} ms vs {array_seconds * 1e3:.1f} ms)"
        )


if __name__ == "__main__":
    import subprocess

    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=Path(extractor_module.__file__).parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    GOLDEN.write_text(
        json.dumps(
            {
                "recorded_at": f"{revision} (array-pass extractor)",
                "synth_config": SYNTH,
                "charts": golden_entries(_src_extract),
            },
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {GOLDEN} from {extractor_module.__file__} at {revision}")
