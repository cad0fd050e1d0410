"""Preprocessing: charts and tables → fixed-shape numeric model inputs.

The encoders of FCM consume:

* **chart input** — for every line of the chart, the sequence of ``N1``
  line-segment images (greyscale crops of width ``P1``), pooled and flattened
  into feature vectors (Sec. IV-B);
* **table input** — for every (surviving) column of the candidate table, the
  sequence of ``N2`` data segments of ``P2`` values each (Sec. IV-C).  The
  y-tick range extracted from the chart filters out columns whose values
  cannot plausibly have produced the chart.

Both are plain NumPy arrays so they can be cached and reused across training
epochs and across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..vision.elements import VisualElements
from .config import FCMConfig


@dataclass
class ChartInput:
    """Model-ready features of one line chart query.

    Attributes
    ----------
    segment_features:
        Array of shape ``(M, N1, F1)``: per line, per segment, the pooled and
        flattened segment image.
    y_range:
        The y-axis value range extracted from the ticks.
    num_lines:
        ``M``.
    """

    segment_features: np.ndarray
    y_range: Tuple[float, float]

    @property
    def num_lines(self) -> int:
        return int(self.segment_features.shape[0])

    @property
    def num_segments(self) -> int:
        return int(self.segment_features.shape[1])


@dataclass
class TableInput:
    """Model-ready segments of one candidate table.

    Attributes
    ----------
    segments:
        Array of shape ``(NC', N2, P2)`` holding the (resampled, optionally
        z-normalised) data segments of the surviving columns.
    column_names:
        Names of the surviving columns, aligned with the first axis.
    table_id:
        Source table id.
    """

    segments: np.ndarray
    column_names: List[str]
    table_id: str

    @property
    def num_columns(self) -> int:
        return int(self.segments.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.num_columns == 0


# --------------------------------------------------------------------------- #
# Chart preprocessing
# --------------------------------------------------------------------------- #
def line_segment_features(
    line_image: np.ndarray, config: FCMConfig
) -> np.ndarray:
    """Split a single line image into pooled, flattened segment features.

    The plot area is cut into ``N1`` segments of width ``P1`` (the last one
    zero-filled where the plot ends early); each is average-pooled by
    ``image_pool`` in both dimensions, cropping the remainder, and flattened.
    A segment too small to pool (shorter or narrower than the factor) is
    flattened as it is and cut to the feature size.

    Parameters
    ----------
    line_image:
        Full-size chart image containing only one line's pixels (values in
        ``[0, 1]``); typically a boolean instance mask cast to float.
    """
    spec = config.chart_spec
    plot = line_image[spec.plot_top : spec.plot_bottom, spec.plot_left : spec.plot_right]
    n1 = config.num_chart_segments
    p1 = config.line_segment_width
    factor = config.image_pool
    height = plot.shape[0]
    covered = min(n1 * p1, plot.shape[1])
    segments = np.zeros((height, n1, p1))
    segments.reshape(height, n1 * p1)[:, :covered] = plot[:, :covered]
    new_h, new_w = height // factor, p1 // factor
    if factor > 1 and new_h > 0 and new_w > 0:
        # All N1 segments in one pass: (rows, in-row, segment, cols, in-col).
        segments = (
            segments[: new_h * factor, :, : new_w * factor]
            .reshape(new_h, factor, n1, new_w, factor)
            .mean(axis=(1, 4))
        )
    flat = segments.transpose(1, 0, 2).reshape(n1, -1)
    return np.ascontiguousarray(flat[:, : config.chart_segment_feature_dim])


def prepare_chart_input(
    chart: LineChart,
    elements: VisualElements,
    config: FCMConfig,
) -> ChartInput:
    """Build the chart encoder's input from extracted visual elements.

    The pooled segment images are standardised over the whole chart (zero
    mean, unit variance) so the linear projection of the chart encoder sees
    inputs on the same scale as the (z-normalised) data segments of the
    dataset encoder — sparse binary masks would otherwise produce activations
    orders of magnitude smaller than the table side.
    """
    if elements.num_lines == 0:
        raise ValueError("cannot encode a chart with no extracted lines")
    per_line = [
        line_segment_features(line.mask.astype(np.float64), config)
        for line in elements.lines
    ]
    features = np.stack(per_line)
    std = features.std()
    if std > 1e-8:
        features = (features - features.mean()) / std
    # Stored in the model's precision: chart inputs are cached (query-prep
    # LRU, training examples), so the policy's memory win applies to them
    # too.  Standardisation above stays in float64 for exactness.
    return ChartInput(
        segment_features=features.astype(config.numeric_dtype, copy=False),
        y_range=elements.y_range,
    )


# --------------------------------------------------------------------------- #
# Table preprocessing
# --------------------------------------------------------------------------- #
def resample_series(values: np.ndarray, target_length: int) -> np.ndarray:
    """Resample a series to ``target_length`` points by linear interpolation."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] == target_length:
        return values.copy()
    src = np.linspace(0.0, 1.0, values.shape[0])
    dst = np.linspace(0.0, 1.0, target_length)
    return np.interp(dst, src, values)


def column_segments(values: np.ndarray, config: FCMConfig) -> np.ndarray:
    """Split a column into ``(N2, P2)`` segments after resampling
    (:func:`table_segments` of the one column)."""
    return table_segments(np.asarray(values, dtype=np.float64)[None], config)[0]


def table_segments(matrix: np.ndarray, config: FCMConfig) -> np.ndarray:
    """Split an ``(NC, rows)`` stack of columns into ``(NC, N2, P2)`` segments.

    ``N2`` is the number of ``P2``-sized segments needed to cover a column,
    capped at ``max_data_segments``; every column is linearly resampled to
    exactly ``N2 * P2`` points so all segments are full, then (optionally)
    z-normalised.  One array pass over the stack; each row is bitwise what
    the column gives alone (mean and deviation written out as ``np.std``
    computes them, minus its per-call overhead).  Never aliases ``matrix``.
    """
    p2 = config.data_segment_size
    n2 = min(max(-(-matrix.shape[1] // p2), 1), config.max_data_segments)
    if matrix.shape[1] != n2 * p2:
        matrix = np.stack([resample_series(row, n2 * p2) for row in matrix])
    elif not config.normalize_columns:
        matrix = matrix.copy()  # every other path builds a new array
    if config.normalize_columns:
        matrix = _z_normalize(matrix)
    return matrix.reshape(len(matrix), n2, p2)


def _z_normalize(matrix: np.ndarray) -> np.ndarray:
    """Each row minus its mean, over its deviation (kept when ~0), as a new
    array.  A row whose sum or sum of squares overflows is divided by its
    largest magnitude first (scale-invariant), so it normalises to finite
    values, not NaN; every other row keeps its bits."""
    count = matrix.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = matrix.sum(axis=1, keepdims=True)
        out = matrix - total / count
        std = np.sqrt(np.multiply(out, out).sum(axis=1, keepdims=True) / count)
    overflowed = ~(np.isfinite(total[:, 0]) & np.isfinite(std[:, 0]))
    if overflowed.any():
        rows = matrix[overflowed]
        out[overflowed] = _z_normalize(rows / np.abs(rows).max(axis=1, keepdims=True))
        std[overflowed] = 1.0
    np.divide(out, std, out=out, where=std > 1e-8)
    return out


class TableBatch(NamedTuple):
    """A chunk of tables prepared as whole arrays (:func:`prepare_table_inputs`):
    one ``(C, N2, P2)`` group per distinct segment count (a table's columns
    side by side, in the model's precision), those columns' raw ``lows`` /
    ``highs``, and per table in chunk order its id, column names and
    ``slots`` entry ``(group, first column, end column)``."""

    groups: List[np.ndarray]
    lows: List[np.ndarray]
    highs: List[np.ndarray]
    table_ids: List[str]
    column_names: List[List[str]]
    slots: List[Tuple[int, int, int]]


def prepare_table_inputs(tables: Sequence[Table], config: FCMConfig) -> TableBatch:
    """Build the dataset encoder's input for a chunk of tables, in whole arrays:
    the columns with one row count are one ``(n, rows)`` matrix and one
    :func:`table_segments` pass, the matrices with one ``N2`` one group.  A
    table's segments are bitwise what it gives alone (rows are independent)."""
    columns = [table.columns for table in tables]
    by_rows: Dict[int, List[int]] = {}
    for position, table in enumerate(tables):
        by_rows.setdefault(table.num_rows, []).append(position)
    by_n2: Dict[int, List[tuple]] = {}
    for members in by_rows.values():
        matrix = np.array([column.values for i in members for column in columns[i]])
        segments = table_segments(matrix, config)
        part = (members, segments, matrix.min(axis=1), matrix.max(axis=1))
        by_n2.setdefault(segments.shape[1], []).append(part)
    ids, names = [t.table_id for t in tables], [[c.name for c in cs] for cs in columns]
    batch = TableBatch([], [], [], ids, names, [(0, 0, 0)] * len(tables))
    for parts in by_n2.values():
        start = 0
        for i in chain.from_iterable(part[0] for part in parts):
            batch.slots[i] = (len(batch.groups), start, start + len(columns[i]))
            start += len(columns[i])
        segments, lows, highs = (
            arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            for arrays in list(zip(*parts))[1:]
        )
        # Stored in the model's precision (segmentation/normalisation above
        # runs in float64): table inputs are cached across epochs and builds.
        batch.groups.append(segments.astype(config.numeric_dtype, copy=False))
        batch.lows.append(lows)
        batch.highs.append(highs)
    return batch


def prepare_table_input(
    table: Table,
    config: FCMConfig,
    y_range: Optional[Tuple[float, float]] = None,
) -> TableInput:
    """Build the dataset encoder's input for one candidate table:
    :func:`prepare_table_inputs` over the one table.

    When ``y_range`` is given, columns whose value range cannot overlap the
    chart's y-axis range (within the configured tolerance) are dropped, which
    is the y-tick filtering step of Sec. IV-C.  If the filter removes every
    column, all columns are kept — an empty encoding would make the table
    unscorable, whereas the paper's filter is only a pruning heuristic.
    """
    if y_range is not None:
        columns = table.filter_columns_by_range(
            y_range[0], y_range[1], tolerance=config.column_filter_tolerance
        )
        if columns and len(columns) < table.num_columns:
            table = Table(table.table_id, columns)
    batch = prepare_table_inputs([table], config)
    return TableInput(batch.groups[0], batch.column_names[0], table.table_id)
