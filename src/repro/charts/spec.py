"""Chart specification: geometry and styling of the rendered line chart.

The rasteriser (``repro.charts.rasterizer``) is this reproduction's stand-in
for Plotly image export.  ``ChartSpec`` fixes the image geometry so that the
segment-level line chart encoder can rely on a constant image width ``W`` and
segment width ``P1`` (Sec. IV-B: ``N1 = W / P1`` segments per line).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Class ids of the rasteriser's per-pixel class mask (Sec. IV-A's visual elements).
MASK_BACKGROUND = 0
MASK_LINE = 1
MASK_Y_TICK = 2
MASK_AXIS = 3
MASK_TICK_LABEL = 4

MASK_CLASS_NAMES = {
    MASK_BACKGROUND: "background",
    MASK_LINE: "line",
    MASK_Y_TICK: "y_tick",
    MASK_AXIS: "axis",
    MASK_TICK_LABEL: "tick_label",
}

NUM_MASK_CLASSES = len(MASK_CLASS_NAMES)


@dataclass(frozen=True)
class ChartSpec:
    """Geometry of the rendered chart image.

    Attributes
    ----------
    width, height:
        Total image size in pixels (greyscale, single channel).
    margin_left:
        Pixels reserved on the left for y-axis tick labels and tick marks.
    margin_bottom, margin_top, margin_right:
        Remaining margins around the plot area.
    num_y_ticks:
        Number of y-axis ticks to draw (evenly spaced "nice" values).
    line_thickness:
        Thickness of plotted lines in pixels.
    tick_length:
        Length of tick marks in pixels.
    """

    width: int = 240
    height: int = 120
    margin_left: int = 30
    margin_bottom: int = 10
    margin_top: int = 6
    margin_right: int = 6
    num_y_ticks: int = 5
    line_thickness: int = 1
    tick_length: int = 4

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("chart dimensions must be positive")
        if self.plot_width <= 10 or self.plot_height <= 10:
            raise ValueError("margins leave too small a plot area")
        if self.num_y_ticks < 2:
            raise ValueError("at least two y ticks are required")

    # ------------------------------------------------------------------ #
    # Derived geometry
    # ------------------------------------------------------------------ #
    @property
    def plot_left(self) -> int:
        return self.margin_left

    @property
    def plot_right(self) -> int:
        return self.width - self.margin_right

    @property
    def plot_top(self) -> int:
        return self.margin_top

    @property
    def plot_bottom(self) -> int:
        return self.height - self.margin_bottom

    @property
    def plot_width(self) -> int:
        return self.plot_right - self.plot_left

    @property
    def plot_height(self) -> int:
        return self.plot_bottom - self.plot_top
