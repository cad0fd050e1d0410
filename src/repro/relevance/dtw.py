"""Dynamic time warping distance (Sec. III-A).

The ground-truth relevance between a data series ``d`` (one line of the
underlying data) and a column ``C`` is ``rel(d, C) = 1 / (1 + DTW(d, C))``.
DTW tolerates the differing lengths and temporal resolutions that arise when
aggregated data is compared against the original column.

Every distance is computed by one exact O(n·m) dynamic program,
:func:`dtw_distances`, stacked over a pair axis: cells on one anti-diagonal
depend only on the two previous diagonals, so each diagonal of *every* pair
is filled in one vector step.  ``min`` and ``+`` are elementwise, so a
distance is bitwise what the plain per-cell loop gives for its pair alone,
whatever its batch-mates; that loop is the oracle in
``tests/test_relevance.py``.  :func:`dtw_distance` is the one-pair call.

Series are always z-normalised before the distance is computed so that a
chart's *shape* rather than its absolute scale drives the match, matching how
the paper treats value ranges (the range is handled separately by the y-tick
filter and the interval-tree index).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def znormalize(series: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Return the z-normalised copy of ``series`` (constant series → zeros)."""
    series = np.asarray(series, dtype=np.float64)
    std = series.std()
    if std < eps:
        return np.zeros_like(series)
    return (series - series.mean()) / std


def _validate(series: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def dtw_distances(pairs: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Exact DTW distance of every z-normalised ``(a, b)`` pair, in one
    anti-diagonal sweep.

    Cell ``(i, j)`` of pair ``p`` lies on anti-diagonal ``d = i + j`` and is
    kept at ``[i, p]`` of that diagonal's ``(n_max + 1, P)`` buffer; three
    rotating buffers hold diagonals ``d``, ``d - 1`` and ``d - 2``.  Every
    ``a`` is padded to ``n_max`` with ``+inf`` and every ``b`` to ``m_max``
    with ``-inf`` and reversed, so the costs ``|a[i-1] - b[d-i-1]|`` of one
    diagonal are two contiguous slices, and a cell outside its own pair's
    ``n × m`` grid costs ``inf`` and feeds nothing.  Pair ``p``'s distance is
    read off diagonal ``n_p + m_p`` at index ``n_p``.  Memory is
    O(P·(n_max + m_max)); an input recurring across pairs (the same array
    object) is validated and normalised once.
    """
    pairs = list(pairs)  # holds every input alive, so ids identify them below
    slots: Dict[int, int] = {}
    series: List[np.ndarray] = []

    def slot(values, name: str) -> int:
        """Validate and z-normalise each distinct input once."""
        if id(values) not in slots:
            slots[id(values)] = len(series)
            series.append(znormalize(_validate(values, name)))
        return slots[id(values)]

    a_slot = np.array([slot(a, "a") for a, _ in pairs], dtype=np.int64)
    b_slot = np.array([slot(b, "b") for _, b in pairs], dtype=np.int64)
    count = len(pairs)
    result = np.empty(count)
    if count == 0:
        return result
    lengths = np.array([s.shape[0] for s in series], dtype=np.int64)
    n, m = lengths[a_slot], lengths[b_slot]
    n_max, m_max, width = int(n.max()), int(m.max()), int(lengths.max())
    # Pair-last layout: a diagonal's rows i_lo..i_hi are one contiguous block.
    front = np.full((width, len(series)), np.inf)  # series, then +inf
    back = np.full((width, len(series)), -np.inf)  # -inf, then the series reversed
    for k, values in enumerate(series):
        front[: values.shape[0], k] = values
        back[width - values.shape[0] :, k] = values[::-1]
    a_pad = front[:n_max].take(a_slot, axis=1)
    b_rev = back[width - m_max :].take(b_slot, axis=1)
    ends = n + m
    finishing = {int(d): np.flatnonzero(ends == d) for d in np.unique(ends)}

    prev2 = np.full((n_max + 1, count), np.inf)  # diagonal d-2; d=0 is {(0,0): 0}
    prev2[0] = 0.0
    prev1 = np.full((n_max + 1, count), np.inf)  # diagonal d-1; d=1 is all inf
    cur = np.full((n_max + 1, count), np.inf)
    cost_buf, best_buf = np.empty((n_max, count)), np.empty((n_max, count))
    for d in range(2, n_max + m_max + 1):
        # Rows i_lo..i_hi of diagonal d; neighbours outside the previous
        # diagonals' spans are never read, so buffers are recycled unreset.
        i_lo, i_hi = max(1, d - m_max), min(n_max, d - 1)
        cost, best = cost_buf[: i_hi - i_lo + 1], best_buf[: i_hi - i_lo + 1]
        np.subtract(
            a_pad[i_lo - 1 : i_hi], b_rev[m_max - d + i_lo : m_max - d + i_hi + 1], out=cost
        )
        np.abs(cost, out=cost)
        np.minimum(prev1[i_lo - 1 : i_hi], prev1[i_lo : i_hi + 1], out=best)
        np.minimum(best, prev2[i_lo - 1 : i_hi], out=best)
        np.add(cost, best, out=cur[i_lo : i_hi + 1])
        done = finishing.get(d)
        if done is not None:
            result[done] = cur[n[done], done]
        if d == 2:
            prev2[0] = np.inf  # (0, 0) is on diagonal 0 only
        prev2, prev1, cur = prev1, cur, prev2
    return result


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact DTW distance between two z-normalised 1-D series:
    :func:`dtw_distances` of the one pair."""
    return float(dtw_distances([(a, b)])[0])
