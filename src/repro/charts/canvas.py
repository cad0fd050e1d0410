"""Low-level raster drawing primitives.

The canvas is a greyscale image (float array in ``[0, 1]``, ink = 1.0 on a
0.0 background) plus a per-pixel class mask and optional per-instance masks,
the pixel-level labels of Sec. IV-A.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class Canvas:
    """A drawable greyscale image with synchronized segmentation masks."""

    def __init__(self, height: int, width: int) -> None:
        if height <= 0 or width <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.height = height
        self.width = width
        self.image = np.zeros((height, width), dtype=np.float64)
        self.class_mask = np.zeros((height, width), dtype=np.int8)
        self.instance_masks: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Mask management
    # ------------------------------------------------------------------ #
    def new_instance(self, name: str) -> np.ndarray:
        """Register (or return) a boolean instance mask for ``name``."""
        if name not in self.instance_masks:
            self.instance_masks[name] = np.zeros((self.height, self.width), dtype=bool)
        return self.instance_masks[name]

    def _paint(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        intensity: float,
        class_id: int,
        instance: Optional[str],
    ) -> None:
        """Set pixels at (rows, cols), clipping out-of-bounds coordinates."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        valid = (rows >= 0) & (rows < self.height) & (cols >= 0) & (cols < self.width)
        rows, cols = rows[valid], cols[valid]
        if rows.size == 0:
            return
        self.image[rows, cols] = np.maximum(self.image[rows, cols], intensity)
        self.class_mask[rows, cols] = class_id
        if instance is not None:
            self.new_instance(instance)[rows, cols] = True

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def draw_pixel(
        self,
        row: int,
        col: int,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
    ) -> None:
        self._paint(np.array([row]), np.array([col]), intensity, class_id, instance)

    def draw_horizontal_line(
        self,
        row: int,
        col_start: int,
        col_end: int,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
    ) -> None:
        cols = np.arange(min(col_start, col_end), max(col_start, col_end) + 1)
        rows = np.full_like(cols, row)
        self._paint(rows, cols, intensity, class_id, instance)

    def draw_vertical_line(
        self,
        col: int,
        row_start: int,
        row_end: int,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
    ) -> None:
        rows = np.arange(min(row_start, row_end), max(row_start, row_end) + 1)
        cols = np.full_like(rows, col)
        self._paint(rows, cols, intensity, class_id, instance)

    def draw_segment(
        self,
        row0: int,
        col0: int,
        row1: int,
        col1: int,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
        thickness: int = 1,
    ) -> None:
        """Draw a straight segment between two pixel coordinates (DDA walk)."""
        self.draw_polyline(
            np.array([row0, row1]),
            np.array([col0, col1]),
            intensity=intensity,
            class_id=class_id,
            instance=instance,
            thickness=thickness,
        )

    def draw_polyline(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
        thickness: int = 1,
    ) -> None:
        """Draw connected segments through the given pixel coordinates.

        Each segment is a DDA walk of ``max(|d_row|, |d_col|, 1) + 1`` samples
        at ``t = k / steps``; the samples of every segment are computed in
        one pass.  ``t`` is built the way ``np.linspace(0, 1, steps + 1)``
        builds it (``k * (1 / steps)``, the last sample set to exactly 1.0),
        so the pixels are those of a per-segment ``linspace`` walk, which
        ``tests/test_rasteriser_parity.py`` keeps as the oracle.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("polyline rows/cols must be 1-D arrays of equal length")
        if rows.size == 1:
            self.draw_pixel(int(rows[0]), int(cols[0]), intensity, class_id, instance)
            return
        d_rows, d_cols = np.diff(rows), np.diff(cols)
        steps = np.maximum(np.maximum(np.abs(d_rows), np.abs(d_cols)), 1)
        counts = steps + 1
        ends = np.cumsum(counts)
        # Sample -> its segment, and its position k within that segment.
        segment = np.repeat(np.arange(steps.size), counts)
        k = np.arange(segment.size) - (ends - counts)[segment]
        t = k * (1.0 / steps)[segment]
        t[ends - 1] = 1.0
        line_rows = np.round(rows[:-1][segment] + d_rows[segment] * t).astype(np.int64)
        line_cols = np.round(cols[:-1][segment] + d_cols[segment] * t).astype(np.int64)
        self._paint(line_rows, line_cols, intensity, class_id, instance)
        # Thickness is applied by stacking vertically shifted copies, which is
        # adequate for the thin lines a chart uses.
        for offset in range(1, thickness):
            self._paint(line_rows + offset, line_cols, intensity, class_id, instance)
            self._paint(line_rows - offset, line_cols, intensity, class_id, instance)

    def blit(
        self,
        bitmap: np.ndarray,
        top: int,
        left: int,
        intensity: float = 1.0,
        class_id: int = 0,
        instance: Optional[str] = None,
    ) -> None:
        """Copy a binary bitmap (e.g. a rendered tick label) onto the canvas."""
        bitmap = np.asarray(bitmap)
        rows, cols = np.nonzero(bitmap > 0.5)
        self._paint(rows + top, cols + left, intensity, class_id, instance)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def crop(self, top: int, bottom: int, left: int, right: int) -> np.ndarray:
        """Return the image crop ``[top:bottom, left:right]``."""
        return self.image[top:bottom, left:right]

