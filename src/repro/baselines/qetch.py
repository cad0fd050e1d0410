"""Qetch* baseline: heuristic sketch-matching extended to multi-line charts.

Qetch (Mannino & Abouzied, SIGMOD'18) matches a hand-drawn sketch against
time-series segments: the candidate series is locally rescaled to the
sketch's bounding box and the match error combines *shape error* (point-wise
deviation after local scaling) and *local distortion error* (how unevenly the
scaling stretches different sections).  It is a heuristic, not a learned
model, and it matches one line at a time.

Qetch* (Sec. VII-B) is the paper's extension to this problem setting: the
visual element extractor pulls each line out of the query chart, Qetch's
matching algorithm scores every (line, column) pair, and maximum-weight
bipartite matching (the same machinery as the ground-truth relevance)
aggregates the pairwise scores into a chart-to-table relevance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.preprocessing import resample_series
from ..relevance import max_weight_matching
from ..vision.extractor import VisualElementExtractor
from .base import DiscoveryMethod


@dataclass
class QetchConfig:
    """Parameters of the Qetch matching heuristic."""

    num_sections: int = 4
    resample_length: int = 64
    distortion_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.num_sections < 1:
            raise ValueError("num_sections must be >= 1")
        if self.resample_length < self.num_sections * 2:
            raise ValueError("resample_length must allow at least 2 points per section")


def _minmax_scale(values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; constant series map to 0.5 (Qetch's bounding-box scaling)."""
    low, high = values.min(), values.max()
    if np.isclose(high, low):
        return np.full_like(values, 0.5)
    return (values - low) / (high - low)


def qetch_match_error(
    query: np.ndarray,
    candidate: np.ndarray,
    config: Optional[QetchConfig] = None,
) -> float:
    """Qetch's match error between a sketched line and a candidate series.

    Both series are resampled to a common length and min-max scaled (Qetch
    scales the candidate to the sketch's bounding box).  The series are then
    split into sections; per section the *shape error* is the mean absolute
    deviation after section-local rescaling, and the *local distortion error*
    is how far the section's own vertical scale deviates from the global
    scale.  The total error is their weighted sum, averaged over sections.
    """
    config = config or QetchConfig()
    query = resample_series(np.asarray(query, dtype=np.float64), config.resample_length)
    candidate = resample_series(
        np.asarray(candidate, dtype=np.float64), config.resample_length
    )
    query_scaled = _minmax_scale(query)
    candidate_scaled = _minmax_scale(candidate)

    section_edges = np.linspace(0, config.resample_length, config.num_sections + 1).astype(int)
    shape_errors: List[float] = []
    distortion_errors: List[float] = []
    for start, end in zip(section_edges[:-1], section_edges[1:]):
        q_sec = query_scaled[start:end]
        c_sec = candidate_scaled[start:end]
        q_span = max(q_sec.max() - q_sec.min(), 1e-6)
        c_span = max(c_sec.max() - c_sec.min(), 1e-6)
        # Shape error: compare the section shapes after removing each
        # section's own offset and scale (local rescaling).
        q_local = (q_sec - q_sec.min()) / q_span
        c_local = (c_sec - c_sec.min()) / c_span
        shape_errors.append(float(np.mean(np.abs(q_local - c_local))))
        # Local distortion: how much the local scale ratio deviates from 1.
        ratio = max(q_span, c_span) / min(q_span, c_span)
        distortion_errors.append(float(np.log(ratio)))
    shape_error = float(np.mean(shape_errors))
    distortion_error = float(np.mean(distortion_errors))
    return shape_error + config.distortion_weight * distortion_error


def qetch_similarity(
    query: np.ndarray,
    candidate: np.ndarray,
    config: Optional[QetchConfig] = None,
) -> float:
    """Similarity in ``(0, 1]``: ``1 / (1 + error)``."""
    return 1.0 / (1.0 + qetch_match_error(query, candidate, config=config))


class QetchStarMethod(DiscoveryMethod):
    """Qetch* as a :class:`DiscoveryMethod`."""

    name = "Qetch*"

    def __init__(
        self,
        config: Optional[QetchConfig] = None,
    ) -> None:
        self.config = config or QetchConfig()
        self.extractor = VisualElementExtractor()
        self._columns: Dict[str, List[np.ndarray]] = {}

    def index_repository(self, tables: Iterable[Table]) -> None:
        for table in tables:
            if table.table_id in self._columns:
                continue
            self._columns[table.table_id] = [
                resample_series(column.values, self.config.resample_length)
                for column in table.columns
            ]

    def score_chart(self, chart: LineChart) -> Dict[str, float]:
        elements = self.extractor.extract(chart)
        query_lines = [
            resample_series(line.interpolated_values(), self.config.resample_length)
            for line in elements.lines
        ]
        scores: Dict[str, float] = {}
        for table_id, columns in self._columns.items():
            weights = np.zeros((len(query_lines), len(columns)))
            for i, line_values in enumerate(query_lines):
                for j, column_values in enumerate(columns):
                    weights[i, j] = qetch_similarity(
                        line_values, column_values, config=self.config
                    )
            total, count = max_weight_matching(weights)
            scores[table_id] = total / count if count else 0.0
        return scores
