"""Ground-truth relevance ``Rel(D, T)`` between underlying data and a table.

Defined bottom-up in Sec. III-A of the paper:

* **Low-level relevance** ``rel(d, C) = 1 / (1 + DTW(d.y, C))`` between a
  single data series (one line) and a single column, ignoring x values.
* **High-level relevance** ``Rel(D, T)``: a maximum-weight bipartite matching
  between the data series of ``D`` and the columns of ``T`` with low-level
  relevances as edge weights.  ``Rel`` is the *mean* weight of the matched
  pairs (0 when none is matched), which keeps scores comparable across
  queries with different numbers of lines.

This score is used to (a) construct the benchmark ground truth (top-50
relevant tables per query) and (b) select semi-hard negatives during FCM
training.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..data.table import Table, UnderlyingData
from .dtw import dtw_distances
from .matching import max_weight_matching


def relevances(pairs: Sequence[Tuple[UnderlyingData, Table]]) -> np.ndarray:
    """``Rel(D, T)`` of every ``(data, table)`` pair: the ``rel(d_i, C_j)``
    cells of every pair in one :func:`dtw_distances` sweep, then the matched
    mean of each pair's ``(M, NC)`` weight matrix."""
    pairs = list(pairs)
    cells = [
        (series.y, column.values)
        for data, table in pairs
        for series in data
        for column in table.columns
    ]
    weights = 1.0 / (1.0 + dtw_distances(cells))
    scores = np.zeros(len(pairs))
    start = 0
    for p, (data, table) in enumerate(pairs):
        stop = start + data.num_lines * table.num_columns
        matrix = weights[start:stop].reshape(data.num_lines, table.num_columns)
        total, count = max_weight_matching(matrix)
        scores[p] = total / count if count else 0.0
        start = stop
    return scores
