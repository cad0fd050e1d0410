"""Ground-truth relevance ``Rel(D, T)`` between underlying data and a table.

Defined bottom-up in Sec. III-A of the paper:

* **Low-level relevance** ``rel(d, C) = 1 / (1 + DTW(d.y, C))`` between a
  single data series (one line) and a single column, ignoring x values.
* **High-level relevance** ``Rel(D, T)``: a maximum-weight bipartite matching
  between the data series of ``D`` and the columns of ``T`` with low-level
  relevances as edge weights.

This score is used to (a) construct the benchmark ground truth (top-50
relevant tables per query) and (b) select semi-hard negatives during FCM
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..data.table import Table, UnderlyingData
from .dtw import dtw_distance, dtw_distances
from .matching import MatchingResult, max_weight_matching


def low_level_relevance(series_y: np.ndarray, column_values: np.ndarray) -> float:
    """``rel(d, C) = 1 / (1 + DTW(d, C))``."""
    return 1.0 / (1.0 + dtw_distance(series_y, column_values))


@dataclass
class RelevanceScore:
    """The high-level relevance together with its matching explanation."""

    score: float
    matching: MatchingResult

    def matched_columns(self, table: Table) -> List[str]:
        """Names of the table columns participating in the matching."""
        return [table.column_names[j] for _, j in self.matching.pairs]


class RelevanceComputer:
    """Computes ``Rel(D, T)`` over exact DTW of z-normalised series.

    Parameters
    ----------
    aggregate:
        How per-pair weights combine into the final score: ``"sum"`` (the
        matching weight, as in the paper) or ``"mean"`` (scale-free variant
        useful when comparing queries with different numbers of lines).
    """

    def __init__(self, aggregate: str = "sum") -> None:
        if aggregate not in ("sum", "mean"):
            raise ValueError("aggregate must be 'sum' or 'mean'")
        self.aggregate = aggregate

    @property
    def signature(self) -> tuple:
        """Hashable identity of the computation this instance performs.

        Part of the ``repro.relevance.cache`` memo key, so scores computed
        under different settings never collide.  ``aggregate`` is read live
        (the :meth:`relevance` method consults the attribute per call).
        """
        return (self.aggregate,)

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    def weight_matrices(
        self, pairs: Sequence[Tuple[UnderlyingData, Table]]
    ) -> List[np.ndarray]:
        """``rel(d_i, C_j)`` weights of every ``(data, table)`` pair, each of
        shape ``(M, NC)``: every cell of every pair in one
        :func:`dtw_distances` sweep."""
        cells = [
            (series.y, column.values)
            for data, table in pairs
            for series in data
            for column in table.columns
        ]
        weights = 1.0 / (1.0 + dtw_distances(cells))
        shapes = [(data.num_lines, table.num_columns) for data, table in pairs]
        ends = np.cumsum([rows * cols for rows, cols in shapes], dtype=np.int64)
        return [part.reshape(shape) for part, shape in zip(np.split(weights, ends[:-1]), shapes)]

    def weight_matrix(self, data: UnderlyingData, table: Table) -> np.ndarray:
        """Pairwise ``rel(d_i, C_j)`` weights, shape ``(M, NC)``."""
        return self.weight_matrices([(data, table)])[0]

    def _relevance_of(self, weights: np.ndarray) -> RelevanceScore:
        """``Rel(D, T)`` and its matching from a :meth:`weight_matrix`."""
        matching = max_weight_matching(weights)
        score = matching.total_weight if self.aggregate == "sum" else matching.mean_weight
        return RelevanceScore(score=score, matching=matching)

    def relevance(self, data: UnderlyingData, table: Table) -> RelevanceScore:
        """Compute ``Rel(D, T)`` and the matching that realises it."""
        return self._relevance_of(self.weight_matrix(data, table))

    def scores(self, pairs: Sequence[Tuple[UnderlyingData, Table]]) -> List[float]:
        """``Rel(D, T)`` of every ``(data, table)`` pair, its cells in one
        :meth:`weight_matrices` sweep."""
        return [self._relevance_of(weights).score for weights in self.weight_matrices(pairs)]

    def score(self, data: UnderlyingData, table: Table) -> float:
        """Convenience wrapper returning only the scalar relevance."""
        return self.scores([(data, table)])[0]

    # ------------------------------------------------------------------ #
    # Batch helpers
    # ------------------------------------------------------------------ #
    def rank_tables(
        self, data: UnderlyingData, tables: Sequence[Table]
    ) -> List[tuple]:
        """Return ``(table_id, score)`` pairs sorted by decreasing relevance."""
        scores = self.scores([(data, table) for table in tables])
        scored = [(table.table_id, score) for table, score in zip(tables, scores)]
        scored.sort(key=lambda item: item[1], reverse=True)
        return scored

    def top_k(
        self, data: UnderlyingData, tables: Sequence[Table], k: int
    ) -> List[str]:
        """Ids of the ``k`` most relevant tables."""
        if k <= 0:
            raise ValueError("k must be positive")
        return [table_id for table_id, _ in self.rank_tables(data, tables)[:k]]
