"""Tests for the visual element extractor."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.charts import MASK_LINE, render_chart_for_table, render_line_chart, render_text
from repro.charts.spec import MASK_TICK_LABEL
from repro.data import Column, DataSeries, Table, UnderlyingData
from repro.vision import decode_tick_values, extract_y_range, tick_pixel_rows


class TestTickDecoding:
    def test_decoded_range_matches_axis(self, simple_chart):
        values = decode_tick_values(simple_chart.image, simple_chart.class_mask)
        assert len(values) >= 2
        low, high = extract_y_range(simple_chart.image, simple_chart.class_mask)
        assert low == pytest.approx(simple_chart.axis_range[0], rel=0.05, abs=0.5)
        assert high == pytest.approx(simple_chart.axis_range[1], rel=0.05, abs=0.5)

    def test_extract_y_range_fallback(self):
        blank = np.zeros((20, 20))
        mask = np.zeros((20, 20), dtype=np.int8)
        assert extract_y_range(blank, mask, fallback=(0.0, 1.0)) == (0.0, 1.0)
        with pytest.raises(ValueError):
            extract_y_range(blank, mask)

    @staticmethod
    def _stamped(labels):
        """A blank image with one tick label per (top row, text) pair."""
        image = np.zeros((40, 40))
        for top, text in labels:
            bitmap = render_text(text)
            image[top : top + bitmap.shape[0], 2 : 2 + bitmap.shape[1]] = bitmap
        return image, np.where(image > 0, MASK_TICK_LABEL, 0).astype(np.int8)

    def test_two_labels_with_one_value_are_not_a_range(self):
        """(v, v) would make every trace a constant line and the interval
        lookup a point query; it is treated as an undecodable axis."""
        image, mask = self._stamped([(3, "2.5"), (20, "2.5")])
        assert decode_tick_values(image, mask) == [2.5, 2.5]
        assert extract_y_range(image, mask, fallback=(0.0, 1.0)) == (0.0, 1.0)
        with pytest.raises(ValueError):
            extract_y_range(image, mask)

    def test_two_distinct_values_are_a_range(self):
        image, mask = self._stamped([(3, "7"), (12, "2.5"), (20, "2.5")])
        assert extract_y_range(image, mask, fallback=(0.0, 1.0)) == (2.5, 7.0)

    def test_unparseable_label_is_skipped(self, simple_chart):
        """One band overwritten with glyphs that spell no number is dropped;
        the range comes from the remaining labels."""
        image, mask = simple_chart.image.copy(), simple_chart.class_mask.copy()
        clean = decode_tick_values(image, mask)
        assert len(clean) == len(simple_chart.ticks) >= 3
        # The middle label: neither end of the range.
        rows = np.unique(np.nonzero(mask == MASK_TICK_LABEL)[0])
        top = int(rows[rows.size // 2]) - 2
        band = mask[top : top + 5] == MASK_TICK_LABEL
        assert not (mask[top - 1] == MASK_TICK_LABEL).any() and band.any()
        image[top : top + 5][band] = 0.0
        mask[top : top + 5][band] = 0
        garbage = render_text("1e-")
        image[top : top + 5, 1 : 1 + garbage.shape[1]] = garbage
        mask[top : top + 5, 1 : 1 + garbage.shape[1]][garbage > 0] = MASK_TICK_LABEL
        noisy = decode_tick_values(image, mask)
        assert len(noisy) == len(clean) - 1 and set(noisy) < set(clean)
        assert extract_y_range(image, mask) == (min(clean), max(clean))

    def test_tick_pixel_rows_grouped(self, simple_chart):
        rows = tick_pixel_rows(simple_chart.class_mask)
        assert len(rows) == len(simple_chart.ticks)


class TestLineExtraction:
    def test_oracle_extraction_matches_chart(self, simple_chart, extractor):
        elements = extractor.extract(simple_chart)
        assert elements.num_lines == simple_chart.num_lines
        for line in elements.lines:
            assert line.coverage > 0.9
            values = line.interpolated_values()
            assert np.all(np.isfinite(values))

    def test_extracted_values_track_underlying_shape(self, simple_chart, extractor):
        elements = extractor.extract(simple_chart)
        # The "rising" line should be recovered as (mostly) increasing values.
        rising_values = elements.lines[0].interpolated_values()
        diffs = np.diff(rising_values)
        assert np.mean(diffs >= -1e-6) > 0.8

    def test_lines_are_the_chart_s_line_masks_in_order(self, simple_chart, extractor):
        elements = extractor.extract(simple_chart)
        assert elements.num_lines == len(simple_chart.line_masks) == 2
        for line, mask in zip(elements.lines, simple_chart.line_masks):
            assert line.mask is mask

    def test_two_parallel_lines(self, extractor):
        x = np.arange(40, dtype=float)
        chart = render_line_chart(
            UnderlyingData([DataSeries(x, np.full(40, 1.2)), DataSeries(x, np.full(40, 2.7))])
        )
        elements = extractor.extract(chart)
        assert elements.num_lines == 2
        low, high = elements.y_range
        pixel = (high - low) / (chart.spec.plot_bottom - chart.spec.plot_top)
        for line, level in zip(elements.lines, (1.2, 2.7)):
            assert line.coverage > 0.9
            rows = line.trace_rows[~np.isnan(line.trace_rows)]
            assert rows.min() == rows.max()
            assert np.nanmean(line.trace_values) == pytest.approx(level, abs=2 * pixel)

    def test_crossing_series_keep_their_own_lines(self, extractor):
        """A crossing cannot swap two lines: each is read from its own mask."""
        n = 64
        t = np.linspace(0.0, 10.0, n)
        table = Table(
            "tbl_crossing",
            [
                Column("time", np.arange(n, dtype=float), role="x"),
                Column("up", t, role="y"),
                Column("down", 10.0 - t, role="y"),
            ],
        )
        chart = render_chart_for_table(table, ["up", "down"], x_column="time")
        up, down = (line.interpolated_values() for line in extractor.extract(chart).lines)
        assert np.all(np.diff(up) >= 0.0) and np.all(np.diff(down) <= 0.0)
        assert (up[0], up[-1]) == pytest.approx((0.0, 10.0), abs=0.5)
        assert (down[0], down[-1]) == pytest.approx((10.0, 0.0), abs=0.5)

    def test_a_chart_without_line_masks_has_no_lines(self, simple_chart, extractor):
        """Line ink in the class mask alone is not traced into lines."""
        chart = dataclasses.replace(simple_chart, line_masks=[])
        assert (chart.class_mask == MASK_LINE).any()
        elements = extractor.extract(chart)
        assert elements.num_lines == 0
        assert elements.y_range == extractor.extract(simple_chart).y_range
