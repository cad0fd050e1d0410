"""Tests for ticks and the rasteriser."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.charts import (
    ChartSpec,
    MASK_AXIS,
    MASK_LINE,
    MASK_TICK_LABEL,
    MASK_Y_TICK,
    format_tick,
    match_text,
    nice_ticks,
    render_chart_for_table,
    render_line_chart,
    render_text,
    underlying_data_from_table,
)
from repro.data import AggregationSpec, DataSeries, UnderlyingData
from repro.charts.canvas import Canvas


class TestNiceTicks:
    def test_simple_range(self):
        ticks = nice_ticks(0.0, 10.0, 5)
        assert ticks[0] <= 0.0 and ticks[-1] >= 10.0
        steps = np.diff(ticks)
        np.testing.assert_allclose(steps, steps[0])

    def test_degenerate_range(self):
        ticks = nice_ticks(2.0, 2.0, 4)
        assert ticks[0] <= 2.0 <= ticks[-1]

    def test_requires_two_ticks(self):
        with pytest.raises(ValueError):
            nice_ticks(0.0, 1.0, 1)

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_covers_range_and_terminates(self, low, span, count):
        high = low + span
        ticks = nice_ticks(low, high, count)
        assert ticks[0] <= low + 1e-9
        assert ticks[-1] >= high - 1e-9
        assert len(ticks) >= 2
        assert all(b > a for a, b in zip(ticks, ticks[1:]))


def parent_nice_ticks(low: float, high: float, count: int):
    """``nice_ticks`` as it stood before flat ranges beyond 2**53 and
    overflowing ranges were handled, verbatim: the oracle for every range
    it gave finite ticks on."""
    if count < 2:
        raise ValueError("at least two ticks are required")
    if high < low:
        low, high = high, low
    if np.isclose(high, low):
        high = low + 1.0
    raw_step = (high - low) / (count - 1)
    magnitude = 10.0 ** np.floor(np.log10(raw_step))
    residual = raw_step / magnitude
    if residual <= 1.0:
        nice = 1.0
    elif residual <= 2.0:
        nice = 2.0
    elif residual <= 2.5:
        nice = 2.5
    elif residual <= 5.0:
        nice = 5.0
    else:
        nice = 10.0
    step = nice * magnitude
    start = np.floor(low / step) * step
    end = np.ceil(high / step) * step
    num_ticks = int(round((end - start) / step)) + 1
    ticks = [start + i * step for i in range(max(num_ticks, 2))]
    return [float(round(t, 10)) for t in ticks]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_ordinary = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_tick_ranges = st.one_of(
    st.tuples(_finite, _finite),
    st.tuples(_ordinary, _ordinary),
    _finite.map(lambda value: (value, value)),
    st.tuples(_finite, st.floats(min_value=-1e8, max_value=1e8)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
)


class TestNiceTicksAtTheFloatLimits:
    @given(_tick_ranges, st.integers(min_value=2, max_value=12))
    @example((1e16, 1e16), 5)
    @example((1.7e18 - 1e6, 1.7e18 + 1e6), 5)
    @example((-1e300, 1e300), 5)
    @example((-1e300, -1e300), 5)
    @example((1.7e308, 1.7e308), 5)
    @example((-1e308, 1e308), 5)
    @example((2.0, 2.0), 4)
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_finite_ticks_or_a_named_error_and_the_parent_s_where_finite(
        self, bounds, count
    ):
        low, high = bounds
        try:
            with np.errstate(all="ignore"):
                before = parent_nice_ticks(low, high, count)
        except (ValueError, OverflowError):
            before = None
        parent_finite = before is not None and bool(np.isfinite(before).all())
        # The parent drew a range flat by ``np.isclose(high, low)``; flat is now
        # ``high == low`` or ticks rounding to one value, so the ranges the
        # parent's isclose called flat while unequal are outside the parity.
        lo, hi = min(low, high), max(low, high)
        parent_widened_unequal = hi != lo and bool(np.isclose(hi, lo))
        try:
            after = nice_ticks(low, high, count)
        except ValueError as exc:
            assert "cannot place finite y-axis ticks" in str(exc)
            assert not parent_finite
            return
        assert np.isfinite(after).all() and len(after) >= 2
        if parent_finite and not parent_widened_unequal:
            assert np.array(after).tobytes() == np.array(before).tobytes()

    @pytest.mark.parametrize("value", [1e16, -1e16, 1.7e18, -1e300, 8e307])
    def test_a_flat_range_beyond_2_to_the_53_is_widened_by_its_magnitude(self, value):
        ticks = nice_ticks(value, value, 5)
        assert ticks[0] <= value <= ticks[-1]
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    @pytest.mark.parametrize(
        "low, high", [(1e6 - 3, 1e6 + 3), (1e-9, 3e-9), (1e16, 1e16 + 64), (-5e-8, -4e-8)]
    )
    def test_a_narrow_range_is_drawn_on_its_own_span(self, low, high):
        """Flat is ``high == low``, not ``np.isclose``: a range narrow beside
        its magnitude gets an axis of its own width, not ``[low, low + 1]``."""
        ticks = nice_ticks(low, high, 5)
        assert ticks[0] <= low and high <= ticks[-1]
        assert ticks[-1] - ticks[0] <= 4 * (high - low)

    @pytest.mark.parametrize("low, high", [(1e-12, 2e-12), (5e-324, 1e-323), (-1e-300, 0.0)])
    def test_a_range_whose_ticks_round_to_one_value_is_flat(self, low, high):
        assert nice_ticks(low, high, 5) == nice_ticks(low, low, 5)

    def test_a_nano_scale_series_is_drawn_in_full(self):
        x = np.arange(100, dtype=float)
        y = 2e-9 + 1e-9 * np.sin(x / 8)
        chart = render_line_chart(UnderlyingData([DataSeries(x, y)]))
        assert chart.axis_range == (1e-9, 3e-9)
        assert len(np.unique(np.nonzero(chart.line_masks[0])[0])) > 50

    @pytest.mark.parametrize(
        "low, high", [(1.7e308, 1.7e308), (-1e308, 1e308), (0.0, 1.7e308)]
    )
    def test_a_range_no_float64_axis_spans_is_refused(self, low, high):
        with pytest.raises(ValueError, match="cannot place finite y-axis ticks"):
            nice_ticks(low, high, 5)


class TestTickLabels:
    @pytest.mark.parametrize("value", [0, 3, -7, 12.5, 0.25, 1234, -0.03, 150000.0])
    def test_render_and_match_roundtrip(self, value):
        label = format_tick(float(value))
        decoded = match_text(render_text(label))
        assert float(decoded) == pytest.approx(float(label), rel=1e-6)

    def test_render_unknown_character_raises(self):
        with pytest.raises(KeyError):
            render_text("x")

    def test_match_empty(self):
        assert match_text(np.zeros((5, 0))) == ""


class TestCanvas:
    def test_out_of_bounds_pixels_are_clipped(self):
        canvas = Canvas(10, 10)
        canvas.draw_segment(-5, -5, 20, 20, class_id=1, instance="line")
        assert canvas.image.max() == 1.0
        assert canvas.image.shape == (10, 10)

    def test_polyline_validation(self):
        canvas = Canvas(10, 10)
        with pytest.raises(ValueError):
            canvas.draw_polyline(np.array([1, 2]), np.array([1, 2, 3]))

    def test_instance_masks_track_pixels(self):
        canvas = Canvas(20, 20)
        canvas.draw_horizontal_line(5, 2, 8, class_id=2, instance="tick")
        assert canvas.instance_masks["tick"].sum() == 7
        assert (canvas.class_mask == 2).sum() == 7


class TestChartSpec:
    def test_geometry(self):
        spec = ChartSpec()
        assert spec.plot_width == spec.width - spec.margin_left - spec.margin_right
        assert spec.plot_height == spec.height - spec.margin_top - spec.margin_bottom

    def test_validation(self):
        with pytest.raises(ValueError):
            ChartSpec(width=20, height=20, margin_left=18)
        with pytest.raises(ValueError):
            ChartSpec(num_y_ticks=1)


class TestRasterizer:
    def test_chart_contains_all_elements(self, simple_chart):
        mask = simple_chart.class_mask
        assert (mask == MASK_LINE).any()
        assert (mask == MASK_AXIS).any()
        assert (mask == MASK_Y_TICK).any()
        assert (mask == MASK_TICK_LABEL).any()
        assert simple_chart.num_lines == 2
        assert simple_chart.image.shape == (simple_chart.spec.height, simple_chart.spec.width)

    def test_axis_range_covers_data(self, simple_chart):
        low, high = simple_chart.axis_range
        data_low, data_high = simple_chart.underlying.y_range
        assert low <= data_low and high >= data_high

    def test_lines_stay_in_plot_area(self, simple_chart):
        spec = simple_chart.spec
        for mask in simple_chart.line_masks:
            rows, cols = np.nonzero(mask)
            assert rows.min() >= spec.plot_top - 1
            assert rows.max() <= spec.plot_bottom + 1
            assert cols.min() >= spec.plot_left
            assert cols.max() <= spec.plot_right

    def test_aggregated_chart_has_fewer_x_positions(self, simple_table):
        plain = render_chart_for_table(simple_table, ["wave"], x_column="time")
        aggregated = render_chart_for_table(
            simple_table, ["wave"], x_column="time", aggregation=AggregationSpec("avg", 8)
        )
        assert len(aggregated.underlying[0]) < len(plain.underlying[0])
        assert aggregated.aggregation is not None

    def test_underlying_data_from_table_aggregation(self, simple_table):
        data = underlying_data_from_table(
            simple_table, ["rising"], aggregation=AggregationSpec("sum", 10)
        )
        assert len(data[0]) == int(np.ceil(simple_table.num_rows / 10))

    def test_single_point_lines_rejected_upstream(self, simple_table):
        data = simple_table.to_underlying_data(["rising"])
        chart = render_line_chart(data)
        assert chart.num_lines == 1
