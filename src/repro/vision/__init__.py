"""``repro.vision`` — visual element extraction from rendered line charts."""

from .elements import ExtractedLine, VisualElements
from .extractor import (
    VisualElementExtractor,
    decode_tick_values,
    extract_y_range,
    rows_to_values,
    tick_pixel_rows,
)

__all__ = [
    "ExtractedLine",
    "VisualElementExtractor",
    "VisualElements",
    "decode_tick_values",
    "extract_y_range",
    "rows_to_values",
    "tick_pixel_rows",
]
