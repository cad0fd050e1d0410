"""Weighted maximum bipartite matching between data series and columns.

Sec. III-A: the high-level relevance ``Rel(D, T)`` treats each data series
``d_i`` of the underlying data and each column ``C_j`` of the candidate table
as the two sides of a bipartite graph whose edge weights are the low-level
relevances ``rel(d_i, C_j)``, matched so that no two edges share a node.

The assignment is solved exactly with the Hungarian algorithm
(``scipy.optimize.linear_sum_assignment``).  scipy is imported inside
:func:`max_weight_matching`, the only place it is called, so only a
``Rel(D, T)`` or Qetch* computation loads it: a serving process, which
never computes either, runs with numpy alone.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def max_weight_matching(weights: np.ndarray) -> Tuple[float, int]:
    """Maximum-weight bipartite matching of a ``(num_series, num_columns)``
    non-negative weight matrix: ``(total, count)``, the sum of the matched
    weights (in row order) and the number of matched pairs of positive
    weight (a zero-weight pair is not matched)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    from scipy.optimize import linear_sum_assignment

    matched = weights[linear_sum_assignment(weights, maximize=True)]
    matched = matched[matched > 0]
    return float(sum(matched)), int(matched.size)
