"""``repro.charts`` — chart substrate: canvas, rasteriser and tick labels."""

from .canvas import Canvas
from .rasterizer import (
    LineChart,
    render_chart_for_table,
    render_line_chart,
    underlying_data_from_table,
)
from .spec import (
    MASK_AXIS,
    MASK_BACKGROUND,
    MASK_CLASS_NAMES,
    MASK_LINE,
    MASK_TICK_LABEL,
    MASK_Y_TICK,
    NUM_MASK_CLASSES,
    ChartSpec,
)
from .ticks import (
    GLYPHS,
    Tick,
    compute_ticks,
    format_tick,
    match_text,
    nice_ticks,
    parse_tick_label,
    render_text,
)

__all__ = [
    "Canvas",
    "ChartSpec",
    "GLYPHS",
    "LineChart",
    "MASK_AXIS",
    "MASK_BACKGROUND",
    "MASK_CLASS_NAMES",
    "MASK_LINE",
    "MASK_TICK_LABEL",
    "MASK_Y_TICK",
    "NUM_MASK_CLASSES",
    "Tick",
    "compute_ticks",
    "format_tick",
    "match_text",
    "nice_ticks",
    "parse_tick_label",
    "render_chart_for_table",
    "render_line_chart",
    "render_text",
    "underlying_data_from_table",
]
