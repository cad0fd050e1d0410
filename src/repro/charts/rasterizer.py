"""Line-chart rasteriser: underlying data → greyscale image + masks.

This is the reproduction's replacement for Plotly's image export.  Given the
underlying data ``D`` (one series per line), it renders:

* the plotted lines (one pixel polyline per series, tracked per-instance),
* the x and y axes,
* y-axis tick marks and bitmap tick labels,

and records, per pixel, which visual element produced it, plus one mask per
line.  The visual element extractor reads those masks directly, in place of
the paper's segmentation model (Sec. IV-A).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.aggregation import AggregationSpec, aggregate_values
from ..data.table import DataSeries, Table, UnderlyingData
from .canvas import Canvas
from .spec import (
    MASK_AXIS,
    MASK_LINE,
    MASK_TICK_LABEL,
    MASK_Y_TICK,
    ChartSpec,
)
from .ticks import GLYPH_HEIGHT, Tick, compute_ticks, render_text


@dataclass
class LineChart:
    """A rendered line chart plus everything needed for supervision.

    Attributes
    ----------
    image:
        Greyscale image, shape ``(height, width)``, ink = 1.0.
    class_mask:
        Per-pixel visual-element class (see ``repro.charts.spec``).
    line_masks:
        One boolean mask per plotted line, in plotting order.
    ticks:
        The y-axis ticks that were drawn.
    axis_range:
        The (value_low, value_high) range the y axis spans.
    spec:
        The :class:`ChartSpec` geometry used.
    underlying:
        The underlying data the chart was rendered from (available at
        training/benchmark-construction time only; query processing never
        reads it).
    source_table_id:
        Id of the table the underlying data came from, if known.
    aggregation:
        The aggregation applied when generating the underlying data, if any.
    """

    image: np.ndarray
    class_mask: np.ndarray
    line_masks: List[np.ndarray]
    ticks: List[Tick]
    axis_range: Tuple[float, float]
    spec: ChartSpec
    underlying: Optional[UnderlyingData] = None
    source_table_id: Optional[str] = None
    aggregation: Optional[AggregationSpec] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_lines(self) -> int:
        return len(self.line_masks)

    @property
    def height(self) -> int:
        return int(self.image.shape[0])

    @property
    def width(self) -> int:
        return int(self.image.shape[1])

    def fingerprint(self) -> str:
        """Content hash of everything query processing reads from this chart.

        Two charts with identical pixels, per-line masks, ticks and geometry
        hash identically even when they are distinct objects (e.g. the same
        table rendered twice) — the serving layer keys its query-preparation
        and result caches by this instead of object identity, so equal charts
        share cache entries and a mutated chart can never be served a stale
        result.  The hash is O(pixels) and costs about what query
        preparation itself costs (≈ 0.4–0.5 ms against 0.35–0.65 ms of
        array-pass extraction + chart-input build on the default geometry),
        so it is not there to save the extraction: it buys the result cache
        (equal-pixel charts share a ranking), and a preparation-LRU hit
        saves the extraction and the chart-input build on top.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(self.image).tobytes())
        digest.update(np.ascontiguousarray(self.class_mask).tobytes())
        for mask in self.line_masks:
            digest.update(np.ascontiguousarray(mask).tobytes())
        digest.update(repr(self.spec).encode("utf-8"))
        digest.update(
            np.asarray(self.axis_range, dtype=np.float64).tobytes()
        )
        digest.update(
            np.asarray(
                [(tick.value, tick.pixel_row) for tick in self.ticks], dtype=np.float64
            ).tobytes()
        )
        return digest.hexdigest()


def _value_to_row(values: np.ndarray, axis_range: Tuple[float, float], spec: ChartSpec) -> np.ndarray:
    low, high = axis_range
    span = max(high - low, 1e-12)
    frac = (values - low) / span
    frac = np.clip(frac, 0.0, 1.0)
    return np.round(spec.plot_bottom - frac * (spec.plot_bottom - spec.plot_top)).astype(int)


def _x_to_col(x: np.ndarray, spec: ChartSpec) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    x_min, x_max = x.min(), x.max()
    span = max(x_max - x_min, 1e-12)
    frac = (x - x_min) / span
    return np.round(spec.plot_left + frac * (spec.plot_width - 1)).astype(int)


def render_line_chart(
    data: UnderlyingData,
    spec: Optional[ChartSpec] = None,
    source_table_id: Optional[str] = None,
    aggregation: Optional[AggregationSpec] = None,
) -> LineChart:
    """Render the underlying data into a :class:`LineChart`."""
    spec = spec or ChartSpec()
    canvas = Canvas(spec.height, spec.width)

    value_low, value_high = data.y_range
    ticks, axis_range = compute_ticks(
        value_low, value_high, spec.num_y_ticks, spec.plot_top, spec.plot_bottom
    )

    # Axes: y axis on the left edge of the plot area, x axis on the bottom.
    canvas.draw_vertical_line(
        spec.plot_left, spec.plot_top, spec.plot_bottom, class_id=MASK_AXIS, instance="axis_y"
    )
    canvas.draw_horizontal_line(
        spec.plot_bottom, spec.plot_left, spec.plot_right - 1, class_id=MASK_AXIS, instance="axis_x"
    )

    # Y ticks: short horizontal marks extending left of the y axis plus labels.
    for i, tick in enumerate(ticks):
        canvas.draw_horizontal_line(
            tick.pixel_row,
            spec.plot_left - spec.tick_length,
            spec.plot_left - 1,
            class_id=MASK_Y_TICK,
            instance=f"ytick_{i}",
        )
        label_bitmap = render_text(tick.label)
        label_top = tick.pixel_row - GLYPH_HEIGHT // 2
        label_left = max(spec.plot_left - spec.tick_length - 1 - label_bitmap.shape[1], 0)
        canvas.blit(
            label_bitmap,
            label_top,
            label_left,
            class_id=MASK_TICK_LABEL,
            instance=f"yticklabel_{i}",
        )

    # Lines, drawn after the axes so overlapping pixels are classified as line.
    line_masks: List[np.ndarray] = []
    for line_idx, series in enumerate(data):
        cols = _x_to_col(series.x, spec)
        rows = _value_to_row(series.y, axis_range, spec)
        instance = f"line_{line_idx}"
        canvas.draw_polyline(
            rows,
            cols,
            class_id=MASK_LINE,
            instance=instance,
            thickness=spec.line_thickness,
        )
        line_masks.append(canvas.instance_masks[instance])

    return LineChart(
        image=canvas.image,
        class_mask=canvas.class_mask,
        line_masks=line_masks,
        ticks=ticks,
        axis_range=axis_range,
        spec=spec,
        underlying=data,
        source_table_id=source_table_id,
        aggregation=aggregation,
    )


def underlying_data_from_table(
    table: Table,
    y_columns: List[str],
    x_column: Optional[str] = None,
    aggregation: Optional[AggregationSpec] = None,
) -> UnderlyingData:
    """Build underlying data from a table selection, applying aggregation.

    This mirrors the two generation modes of Sec. II: direct column pairs, or
    a column pair combined with a windowed aggregation operator.
    """
    if aggregation is None or aggregation.is_identity:
        return table.to_underlying_data(y_columns, x_column=x_column)
    series_list: List[DataSeries] = []
    for name in y_columns:
        aggregated = aggregate_values(table.column(name).values, aggregation)
        x_values = np.arange(1, aggregated.shape[0] + 1, dtype=np.float64)
        series_list.append(
            DataSeries(x=x_values, y=aggregated, name=name, source_column=name)
        )
    return UnderlyingData(series=series_list)


def render_chart_for_table(
    table: Table,
    y_columns: List[str],
    x_column: Optional[str] = None,
    aggregation: Optional[AggregationSpec] = None,
    spec: Optional[ChartSpec] = None,
) -> LineChart:
    """Convenience wrapper: table + column selection (+ aggregation) → chart."""
    data = underlying_data_from_table(
        table, y_columns, x_column=x_column, aggregation=aggregation
    )
    return render_line_chart(
        data, spec=spec, source_table_id=table.table_id, aggregation=aggregation
    )
