"""Visual element extractor: chart pixels → lines and y-axis value range.

Sec. IV-A of the paper: the extractor recovers the two essential visual
elements from a line chart query — the lines and the y-axis ticks.  This
module turns a segmentation mask (either the ground-truth mask the rasteriser
produced or a mask predicted by the trained LCSeg model) into:

* per-line pixel masks and per-column traces (pixel rows → data values),
* the numeric y-axis range, decoded from the bitmap tick labels by template
  matching (our stand-in for OCR on real charts).

Every cold query pays this stage before any index or matcher work, so it is
written as whole-array passes: a trace is one masked row-sum per line, the
runs of every plot column come from one ``np.diff`` over the padded mask, the
tick labels are decoded once per chart and every glyph cell is matched
against the whole template tensor at once.  Only the greedy line tracker of
the model-free path walks the columns (each assignment depends on the one
before), and it walks precomputed runs.  The per-column loops these passes
replaced are the oracles of ``tests/test_extractor_parity.py``: the outputs
are the same to the bit, NaN positions included.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..charts.spec import (
    MASK_LINE,
    MASK_TICK_LABEL,
    MASK_Y_TICK,
    ChartSpec,
)
from ..charts.ticks import GLYPH_HEIGHT, match_text
from .elements import ExtractedLine, VisualElements
from .lcseg import LCSegModel


# --------------------------------------------------------------------------- #
# Tick decoding
# --------------------------------------------------------------------------- #
def _band_starts(rows: np.ndarray) -> np.ndarray:
    """Where each band of consecutive rows begins in ascending ``rows``.

    ``rows`` are the pixel rows of one mask class as ``np.nonzero`` lists
    them (row by row, so ascending with repeats); a new band begins wherever
    a row is more than one below the row before it.
    """
    return np.append(0, np.nonzero(np.diff(rows) > 1)[0] + 1)


def decode_tick_values(image: np.ndarray, class_mask: np.ndarray) -> List[float]:
    """Decode the numeric values of all y-axis tick labels in the chart.

    Tick labels are located via the ``tick_label`` segmentation class,
    grouped into horizontal bands (one per label), cropped, and decoded by
    template matching against the glyph set.  Labels that fail to parse are
    skipped — a robustness property verified in the tests.
    """
    label_rows, label_cols = np.nonzero(class_mask == MASK_TICK_LABEL)
    if label_rows.size == 0:
        return []
    starts = _band_starts(label_rows)
    tops = label_rows[starts].tolist()
    lefts = np.minimum.reduceat(label_cols, starts).tolist()
    rights = np.maximum.reduceat(label_cols, starts).tolist()
    values: List[float] = []
    for top, left, right in zip(tops, lefts, rights):
        crop = image[top : top + GLYPH_HEIGHT, left : right + 1] > 0.5
        if crop.shape[0] < GLYPH_HEIGHT:
            crop = np.pad(crop, ((0, GLYPH_HEIGHT - crop.shape[0]), (0, 0)))
        try:
            values.append(float(match_text(crop)))
        except ValueError:
            continue
    return values


def _range_of(
    values: Sequence[float], fallback: Optional[Tuple[float, float]]
) -> Tuple[float, float]:
    """The (low, high) range spanned by decoded tick values.

    Two labels that decode to the same number span nothing: a zero-width
    range would turn every trace into a constant line and the interval-tree
    lookup into a point query, so it counts as an undecodable axis.
    """
    if values and min(values) < max(values):
        return float(min(values)), float(max(values))
    if fallback is not None:
        return fallback
    raise ValueError("could not decode two distinct y-axis tick values")


def extract_y_range(
    image: np.ndarray,
    class_mask: np.ndarray,
    fallback: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float]:
    """Return the (low, high) y-axis value range read from the tick labels.

    Needs two *distinct* decoded values; otherwise ``fallback`` is returned,
    or ``ValueError`` raised when there is none.
    """
    return _range_of(decode_tick_values(image, class_mask), fallback)


def tick_pixel_rows(class_mask: np.ndarray) -> List[int]:
    """Pixel row of every detected y-tick mark (mean row per tick band)."""
    rows, _ = np.nonzero(class_mask == MASK_Y_TICK)
    if rows.size == 0:
        return []
    starts = _band_starts(rows)
    tops, bottoms = rows[starts], rows[np.append(starts[1:] - 1, -1)]
    return ((tops + bottoms) // 2).tolist()


# --------------------------------------------------------------------------- #
# Line instance separation and tracing
# --------------------------------------------------------------------------- #
def _column_runs(
    line_mask: np.ndarray, plot_bounds: Tuple[int, int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every contiguous vertical run of line pixels in the plot area.

    Returns ``(counts, rows)``: the number of runs in each plot column, and
    the mean image row of every run, column by column and top to bottom
    within a column.
    """
    top, bottom, left, right = plot_bounds
    # One plot column per row, with a blank cell at either end so that every
    # run has a rising and a falling edge.
    columns = np.zeros((right - left, bottom - top + 2), dtype=bool)
    columns[:, 1:-1] = line_mask[top:bottom, left:right].T
    cols, edges = np.nonzero(np.diff(columns, axis=1))
    # Edges alternate within a column: a run covers plot rows first .. last,
    # whose mean is exactly (first + last) / 2.
    first, last = edges[0::2], edges[1::2] - 1
    counts = np.bincount(cols[0::2], minlength=right - left)
    return counts, (first + last) / 2 + top


def _num_lines(run_counts: np.ndarray) -> int:
    run_counts = run_counts[run_counts > 0]
    if run_counts.size == 0:
        return 0
    return int(np.percentile(run_counts, 90))


def estimate_num_lines(line_mask: np.ndarray, plot_bounds: Tuple[int, int, int, int]) -> int:
    """Estimate the number of distinct lines from run counts per column.

    Lines may cross (reducing the per-column count locally), so the estimate
    uses a high percentile of the per-column run counts rather than the
    maximum, which is sensitive to rendering artefacts.
    """
    return _num_lines(_column_runs(line_mask, plot_bounds)[0])


def separate_line_instances(
    line_mask: np.ndarray,
    plot_bounds: Tuple[int, int, int, int],
    num_lines: Optional[int] = None,
) -> List[np.ndarray]:
    """Split a line-class mask into per-line traces by greedy row tracking.

    Returns one array per line of length ``right - left`` holding the pixel
    row of that line in each plot column (NaN where the line is absent).
    """
    counts, run_rows = _column_runs(line_mask, plot_bounds)
    if num_lines is None:
        num_lines = _num_lines(counts)
    if num_lines == 0:
        return []

    traces = [np.full(counts.size, np.nan) for _ in range(num_lines)]
    last_rows: List[Optional[float]] = [None] * num_lines
    runs = iter(run_rows.tolist())

    # The assignment in one column depends on the one before it, so the
    # tracker stays a loop — over the precomputed runs, column by column.
    for offset, count in enumerate(counts.tolist()):
        if count == 0:
            continue
        candidates = list(islice(runs, count))
        # Greedily match candidates to the closest previously seen line row.
        pairs: List[Tuple[float, int, float]] = []
        for line_idx in range(num_lines):
            if last_rows[line_idx] is None:
                continue
            for cand in candidates:
                pairs.append((abs(cand - last_rows[line_idx]), line_idx, cand))
        pairs.sort(key=lambda item: item[0])
        used_lines: set = set()
        used_cands: set = set()
        for _, line_idx, cand in pairs:
            if line_idx in used_lines or cand in used_cands:
                continue
            traces[line_idx][offset] = cand
            last_rows[line_idx] = cand
            used_lines.add(line_idx)
            used_cands.add(cand)
        # Any never-seen lines pick up leftover candidates in order.
        leftover = [c for c in candidates if c not in used_cands]
        fresh = [i for i in range(num_lines) if last_rows[i] is None]
        for line_idx, cand in zip(fresh, leftover):
            traces[line_idx][offset] = cand
            last_rows[line_idx] = cand
    return traces


def rows_to_values(
    trace_rows: np.ndarray,
    y_range: Tuple[float, float],
    plot_top: int,
    plot_bottom: int,
) -> np.ndarray:
    """Convert pixel rows to data values using the y-axis mapping."""
    low, high = y_range
    span_rows = max(plot_bottom - plot_top, 1)
    frac = (plot_bottom - trace_rows) / span_rows
    return low + frac * (high - low)


def _trace_to_mask(
    trace_rows: np.ndarray, shape: Tuple[int, int], plot_left: int
) -> np.ndarray:
    """One pixel per traced column, at the trace's row rounded half to even."""
    mask = np.zeros(shape, dtype=bool)
    offsets = np.nonzero(~np.isnan(trace_rows))[0]
    mask[np.rint(trace_rows[offsets]).astype(np.intp), plot_left + offsets] = True
    return mask


# --------------------------------------------------------------------------- #
# Top-level extraction
# --------------------------------------------------------------------------- #
class VisualElementExtractor:
    """Turns a rendered chart into :class:`VisualElements`.

    Parameters
    ----------
    model:
        Optional trained :class:`LCSegModel`.  When provided, the class mask
        is predicted from pixels alone ("model" mode); otherwise the
        rasteriser's ground-truth class mask is used ("mask" mode), which
        corresponds to the paper's automatic LineChartSeg labelling.
    use_oracle_instances:
        When true, per-line instance masks recorded by the rasteriser are
        used directly (the configuration used for benchmark construction);
        when false, instances are separated from the class mask by greedy
        tracking, exercising the full query-time pipeline.
    """

    def __init__(
        self,
        model: Optional[LCSegModel] = None,
        use_oracle_instances: bool = True,
    ) -> None:
        self.model = model
        self.use_oracle_instances = use_oracle_instances

    def extract(self, chart: LineChart) -> VisualElements:
        spec = chart.spec
        plot_bounds = (spec.plot_top, spec.plot_bottom, spec.plot_left, spec.plot_right)

        if self.model is not None:
            class_mask = self.model.predict_mask(chart.image)
        else:
            class_mask = chart.class_mask

        tick_values = decode_tick_values(chart.image, class_mask)
        y_range = _range_of(tick_values, fallback=chart.axis_range)

        if self.use_oracle_instances and chart.line_masks:
            traced = [
                (mask, self._trace_from_mask(mask, plot_bounds))
                for mask in chart.line_masks
            ]
        else:
            traced = [
                (_trace_to_mask(trace_rows, chart.image.shape, spec.plot_left), trace_rows)
                for trace_rows in separate_line_instances(class_mask == MASK_LINE, plot_bounds)
            ]
        lines = [
            ExtractedLine(
                mask=mask,
                trace_rows=trace_rows,
                trace_values=rows_to_values(
                    trace_rows, y_range, spec.plot_top, spec.plot_bottom
                ),
            )
            for mask, trace_rows in traced
        ]
        return VisualElements(
            lines=lines,
            y_range=y_range,
            tick_values=tick_values,
            plot_bounds=plot_bounds,
        )

    @staticmethod
    def _trace_from_mask(
        mask: np.ndarray, plot_bounds: Tuple[int, int, int, int]
    ) -> np.ndarray:
        """Mean pixel row of ``mask`` in every plot column (NaN where empty)."""
        top, bottom, left, right = plot_bounds
        plot = mask[top:bottom, left:right].astype(bool, copy=False).astype(np.float64)
        counts = plot.sum(axis=0)
        # Counts and sums of row indices are integers, exact in float64, so
        # the quotient is np.mean over the column's pixel rows to the bit.
        row_sums = np.arange(bottom - top, dtype=np.float64) @ plot
        present = counts > 0
        trace = np.full(right - left, np.nan)
        trace[present] = row_sums[present] / counts[present] + top
        return trace
