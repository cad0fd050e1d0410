"""Axis tick computation and a tiny bitmap font for tick labels.

The y-axis ticks are one of the two essential visual elements the paper's
visual element extractor recovers from a chart (they give the value range
used both to filter candidate columns and to query the interval-tree index).
Tick *values* therefore need to be readable from the rendered pixels.  We
render each tick label with a minimal 3x5 bitmap font; the extractor in
``repro.vision`` decodes them by template matching, mirroring the role OCR
plays for real charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: 3x5 bitmap glyphs for the characters tick labels can contain.
GLYPHS: Dict[str, np.ndarray] = {
    "0": np.array([[1, 1, 1], [1, 0, 1], [1, 0, 1], [1, 0, 1], [1, 1, 1]]),
    "1": np.array([[0, 1, 0], [1, 1, 0], [0, 1, 0], [0, 1, 0], [1, 1, 1]]),
    "2": np.array([[1, 1, 1], [0, 0, 1], [1, 1, 1], [1, 0, 0], [1, 1, 1]]),
    "3": np.array([[1, 1, 1], [0, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]]),
    "4": np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1]]),
    "5": np.array([[1, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1], [1, 1, 1]]),
    "6": np.array([[1, 1, 1], [1, 0, 0], [1, 1, 1], [1, 0, 1], [1, 1, 1]]),
    "7": np.array([[1, 1, 1], [0, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0]]),
    "8": np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1]]),
    "9": np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1], [1, 1, 1]]),
    "-": np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1], [0, 0, 0], [0, 0, 0]]),
    ".": np.array([[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0]]),
    "e": np.array([[0, 0, 0], [1, 1, 1], [1, 1, 0], [1, 0, 0], [1, 1, 1]]),
}

GLYPH_HEIGHT = 5
GLYPH_WIDTH = 3
GLYPH_SPACING = 1

#: The glyph set as one ``(G, 5, 3)`` template tensor, in ``GLYPHS`` order.
_GLYPH_CHARS = tuple(GLYPHS)
_GLYPH_STACK = np.stack([GLYPHS[char] for char in _GLYPH_CHARS]).astype(np.int8)


@dataclass(frozen=True)
class Tick:
    """A single y-axis tick: its numeric value and pixel row."""

    value: float
    pixel_row: int
    label: str


def nice_ticks(low: float, high: float, count: int) -> List[float]:
    """Return evenly spaced "nice" tick values covering ``[low, high]``.

    The raw step ``(high - low) / (count - 1)`` is rounded up to 1/2/2.5/5/10
    times a power of ten (the standard heuristic used by plotting libraries);
    ticks then run from ``floor(low / step) * step`` to the first multiple of
    ``step`` at or above ``high``, so the data range is always fully covered.
    The number of returned ticks is approximately ``count`` (never fewer than
    two) but may differ by one or two depending on rounding.

    A range is flat when ``high == low`` or its ticks, rounded to ten
    decimals, hold fewer than two distinct values.  A flat range is widened
    by 1.0 — or by ``|low|`` where 1.0 is lost below the float64 spacing at
    ``low`` (``|low| >= 2**53``).  A range no finite float64 axis can span
    (its width or its rounded-up end overflows) raises
    ``ValueError("cannot place finite y-axis ticks on ...")``.
    """
    if count < 2:
        raise ValueError("at least two ticks are required")
    if high < low:
        low, high = high, low
    requested = (float(low), float(high))
    ticks = _rounded_ticks(low, high, count) if high > low else []
    if ticks is not None and len(set(ticks)) < 2:
        high = low + 1.0
        if high == low:
            high = low + abs(low)
        ticks = _rounded_ticks(low, high, count)
    if ticks is None:
        raise ValueError(f"cannot place finite y-axis ticks on {list(requested)}")
    return ticks


def _rounded_ticks(low: float, high: float, count: int) -> Optional[List[float]]:
    """:func:`nice_ticks` over ``low < high`` rounded to ten decimals, or
    ``None`` where the step or the ticks overflow."""
    # Overflow and 0/0 are not warned about: they come back as None below.
    with np.errstate(all="ignore"):
        raw_step = (high - low) / (count - 1)
        magnitude = 10.0 ** np.floor(np.log10(raw_step))
        if magnitude == 0.0:
            # A step under 1e-323 has no power of ten: every tick rounds to 0.
            return [0.0]
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
        intervals = (end - start) / step
    if not np.isfinite(intervals):
        return None
    num_ticks = int(round(intervals)) + 1
    ticks = [start + i * step for i in range(max(num_ticks, 2))]
    # Rounding to ten decimals overflows beyond ~1.8e298, where every float64
    # is a whole number: such a tick is kept as it is.
    with np.errstate(over="ignore"):
        rounded = [round(t, 10) for t in ticks]
    return [float(r if np.isfinite(r) else t) for r, t in zip(rounded, ticks)]


def format_tick(value: float) -> str:
    """Format a tick value compactly with at most three significant digits."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 10000 or magnitude < 0.01:
        text = f"{value:.1e}"
        # Compact exponent form: 1.5e+04 -> 1.5e4
        mantissa, exponent = text.split("e")
        return f"{mantissa}e{int(exponent)}"
    if magnitude >= 100:
        return f"{value:.0f}"
    if magnitude >= 1:
        text = f"{value:.1f}"
    else:
        text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def parse_tick_label(label: str) -> float:
    """Parse a label produced by :func:`format_tick` back into a float."""
    return float(label)


def render_text(text: str) -> np.ndarray:
    """Render ``text`` into a binary bitmap using the 3x5 glyph set.

    Unknown characters raise ``KeyError`` so that formatting bugs surface
    loudly instead of producing unreadable labels.
    """
    if not text:
        return np.zeros((GLYPH_HEIGHT, 0))
    glyphs = [GLYPHS[ch] for ch in text]
    width = len(glyphs) * GLYPH_WIDTH + (len(glyphs) - 1) * GLYPH_SPACING
    bitmap = np.zeros((GLYPH_HEIGHT, width))
    col = 0
    for glyph in glyphs:
        bitmap[:, col : col + GLYPH_WIDTH] = glyph
        col += GLYPH_WIDTH + GLYPH_SPACING
    return bitmap


def match_text(bitmap: np.ndarray) -> str:
    """Decode a bitmap produced by :func:`render_text` via template matching.

    The decoder splits the bitmap into glyph-width cells and picks, for each
    cell, the glyph with the smallest Hamming distance.  It tolerates small
    amounts of noise, mirroring how an OCR model behaves on clean charts.
    """
    if bitmap.size == 0:
        return ""
    binary = (np.asarray(bitmap) > 0.5).astype(np.int8)
    height, width = binary.shape
    if height != GLYPH_HEIGHT:
        raise ValueError(f"expected bitmap height {GLYPH_HEIGHT}, got {height}")
    if width < GLYPH_WIDTH:
        return ""
    starts = np.arange(0, width - GLYPH_WIDTH + 1, GLYPH_WIDTH + GLYPH_SPACING)
    # (cells, 5, 3): every glyph-width cell of the bitmap.
    cells = binary[:, starts[:, None] + np.arange(GLYPH_WIDTH)].transpose(1, 0, 2)
    inked = cells.any(axis=(1, 2))
    if not inked.any():
        return ""
    # Hamming distance of every cell to every glyph; argmin keeps the first
    # of equally close glyphs, in GLYPHS order.
    distances = np.abs(cells[:, None] - _GLYPH_STACK).sum(axis=(2, 3))
    best = distances.argmin(axis=1)
    # Blank cells before the first inked one are not part of the label.
    return "".join(_GLYPH_CHARS[index] for index in best[inked.argmax() :].tolist())


def compute_ticks(
    low: float, high: float, count: int, plot_top: int, plot_bottom: int
) -> Tuple[List[Tick], Tuple[float, float]]:
    """Compute tick values, labels and pixel rows for a y-axis.

    Returns the tick list and the actual (value_low, value_high) range the
    axis covers (the first and last tick values), which is what the value →
    pixel mapping of the rasteriser uses.
    """
    values = nice_ticks(low, high, count)
    value_low, value_high = values[0], values[-1]
    span = max(value_high - value_low, 1e-12)
    ticks = []
    for value in values:
        # Row 0 is the top of the image; larger values sit higher (smaller row).
        frac = (value - value_low) / span
        row = int(round(plot_bottom - frac * (plot_bottom - plot_top)))
        ticks.append(Tick(value=value, pixel_row=row, label=format_tick(value)))
    return ticks, (value_low, value_high)
