"""Visual element extractor: chart pixels → lines and y-axis value range.

Sec. IV-A of the paper: the extractor recovers the two essential visual
elements from a line chart query — the lines and the y-axis ticks.  The
paper segments the chart with a trained model first; here every chart is
rendered by :mod:`repro.charts.rasterizer`, which records the mask of each
line as it draws it, so the extractor reads those masks instead (the
deviation is stated in ``docs/ARCHITECTURE.md``).  It turns a chart into:

* per-line pixel masks and per-column traces (pixel rows → data values),
* the numeric y-axis range, decoded from the bitmap tick labels by template
  matching (our stand-in for OCR on real charts).

A chart without per-line masks has no lines; it is refused downstream by
:func:`repro.fcm.preprocessing.prepare_chart_input`.

Every cold query pays this stage before any index or matcher work, so it is
written as whole-array passes: a trace is one masked row-sum per line, the
tick labels are decoded once per chart and every glyph cell is matched
against the whole template tensor at once.  The per-column loops these
passes replaced are the oracles of ``tests/test_extractor_parity.py``: the
outputs are the same to the bit, NaN positions included.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..charts.spec import MASK_TICK_LABEL, MASK_Y_TICK
from ..charts.ticks import GLYPH_HEIGHT, match_text
from .elements import ExtractedLine, VisualElements


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
# Tracing
# --------------------------------------------------------------------------- #
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


# --------------------------------------------------------------------------- #
# Top-level extraction
# --------------------------------------------------------------------------- #
class VisualElementExtractor:
    """Turns a rendered chart into :class:`VisualElements`.

    The lines are the chart's per-line masks (``chart.line_masks``), each
    traced column by column; the y range comes from the tick labels of the
    chart's class mask, or ``chart.axis_range`` when fewer than two distinct
    labels decode.
    """

    def extract(self, chart: LineChart) -> VisualElements:
        spec = chart.spec
        plot_bounds = (spec.plot_top, spec.plot_bottom, spec.plot_left, spec.plot_right)
        tick_values = decode_tick_values(chart.image, chart.class_mask)
        y_range = _range_of(tick_values, fallback=chart.axis_range)
        # The rasteriser draws the axis minimum on row ``plot_bottom``, and a
        # line mask holds no axis ink: trace that row too.
        trace_bounds = (spec.plot_top, spec.plot_bottom + 1, spec.plot_left, spec.plot_right)
        lines = []
        for mask in chart.line_masks:
            trace_rows = self._trace_from_mask(mask, trace_bounds)
            lines.append(
                ExtractedLine(
                    mask=mask,
                    trace_rows=trace_rows,
                    trace_values=rows_to_values(
                        trace_rows, y_range, spec.plot_top, spec.plot_bottom
                    ),
                )
            )
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
