"""Containers for the visual elements extracted from a line chart.

The paper's visual element extractor produces two essential elements
(Sec. IV-A): the **lines** (used by the segment-level line chart encoder) and
the **y-axis ticks** (used to filter candidate columns and to query the
interval-tree index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class ExtractedLine:
    """One extracted line.

    Attributes
    ----------
    mask:
        Boolean pixel mask of the line over the full chart image.
    trace_rows:
        For every pixel column of the plot area, the (mean) pixel row of the
        line in that column, or NaN where the line has no pixel.  The array
        is indexed by column offset within the plot area.
    trace_values:
        ``trace_rows`` converted to data values using the extracted y-axis
        range (NaN propagates).  This is the "shape" signal used by the Qetch
        baseline and by relevance diagnostics.
    """

    mask: np.ndarray
    trace_rows: np.ndarray
    trace_values: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.dtype != bool:
            object.__setattr__(self, "mask", self.mask.astype(bool))
        if self.trace_rows.shape != self.trace_values.shape:
            raise ValueError("trace_rows and trace_values must have the same shape")

    @property
    def coverage(self) -> float:
        """Fraction of plot columns in which the line has at least one pixel."""
        return float(np.mean(~np.isnan(self.trace_rows)))

    def interpolated_values(self) -> np.ndarray:
        """Return ``trace_values`` with NaN gaps filled by linear interpolation."""
        values = self.trace_values.copy()
        nans = np.isnan(values)
        if nans.all():
            return np.zeros_like(values)
        if nans.any():
            idx = np.arange(values.shape[0])
            values[nans] = np.interp(idx[nans], idx[~nans], values[~nans])
        return values


@dataclass
class VisualElements:
    """The full output of the visual element extractor for one chart."""

    lines: List[ExtractedLine]
    y_range: Tuple[float, float]
    tick_values: List[float] = field(default_factory=list)
    plot_bounds: Optional[Tuple[int, int, int, int]] = None  # top, bottom, left, right

    def __post_init__(self) -> None:
        low, high = self.y_range
        if low > high:
            object.__setattr__(self, "y_range", (high, low))

    @property
    def num_lines(self) -> int:
        return len(self.lines)

