"""Dynamic time warping distance (Sec. III-A).

The ground-truth relevance between a data series ``d`` (one line of the
underlying data) and a column ``C`` is ``rel(d, C) = 1 / (1 + DTW(d, C))``.
DTW tolerates the differing lengths and temporal resolutions that arise when
aggregated data is compared against the original column.

Two implementations are provided:

* :func:`dtw_distance` — exact O(n·m) dynamic program, vectorised as an
  anti-diagonal NumPy sweep (cells on one anti-diagonal only depend on the
  two previous diagonals, so each diagonal is filled in a single vector
  step); the plain per-cell loop it is tested against is the oracle in
  ``tests/test_relevance.py``;
* :func:`dtw_distance_banded` — the Sakoe–Chiba banded variant, an optional
  accelerator whose band width trades accuracy for speed (the band is exact
  when it is at least as wide as the length difference of the inputs).

Series are optionally z-normalised before the distance is computed so that a
chart's *shape* rather than its absolute scale drives the match, matching how
the paper treats value ranges (the range is handled separately by the y-tick
filter and the interval-tree index).
"""

from __future__ import annotations

from typing import Optional, Tuple

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


def _accumulate_antidiagonal(cost: np.ndarray) -> np.ndarray:
    """Fill the full ``(n+1, m+1)`` DTW table for a ``(n, m)`` cost matrix.

    The classic recurrence ``acc[i, j] = cost[i-1, j-1] + min(acc[i-1, j],
    acc[i, j-1], acc[i-1, j-1])`` is serial along rows *and* columns, but all
    cells on one anti-diagonal ``i + j = d`` depend only on diagonals
    ``d - 1`` and ``d - 2`` — so each diagonal is computed in one vectorised
    step instead of a Python-level inner loop.  ``inf`` entries in ``cost``
    (used by the banded variant) propagate exactly as in the scalar loop.
    """
    n, m = cost.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for d in range(2, n + m + 2):
        i_lo = max(1, d - (m + 1) + 1)
        i_hi = min(n, d - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        best = np.minimum(
            np.minimum(acc[i - 1, j], acc[i, j - 1]), acc[i - 1, j - 1]
        )
        acc[i, j] = cost[i - 1, j - 1] + best
    return acc


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    normalize: bool = True,
) -> float:
    """Exact DTW distance between two 1-D series (anti-diagonal sweep).

    Parameters
    ----------
    a, b:
        Input series (possibly different lengths).
    normalize:
        Whether to z-normalise both series first (default, shape matching).
    """
    a = _validate(a, "a")
    b = _validate(b, "b")
    if normalize:
        a, b = znormalize(a), znormalize(b)
    n, m = a.shape[0], b.shape[0]
    # A full-width band turns the banded sweep into the exact DP while
    # keeping its O(n) rolling-buffer memory; the dense (n+1, m+1) table of
    # _accumulate_antidiagonal is only needed when the path is requested.
    lo = np.ones(n, dtype=np.int64)
    hi = np.full(n, m, dtype=np.int64)
    return _banded_sweep(a, b, lo, hi)


def _band_bounds(n: int, m: int, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``[lo_i, hi_i]`` column bounds of the Sakoe–Chiba band.

    The band is centred on the rescaled diagonal ``j ≈ i·m/n``; the first row
    is fully open on the left so a warping path can start anywhere along
    ``b``.  Both ``i + lo_i`` and ``i + hi_i`` are non-decreasing, which the
    banded sweep exploits to locate each anti-diagonal's in-band cells.
    """
    i = np.arange(1, n + 1)
    center = np.round(i * m / n).astype(np.int64)
    lo = np.maximum(1, center - band)
    hi = np.minimum(m, center + band)
    lo[0] = 1
    return lo, hi


def _banded_sweep(
    a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> float:
    """Banded anti-diagonal sweep returning the accumulated cost at (n, m).

    Same recurrence as :func:`_accumulate_antidiagonal`, but each diagonal
    only visits its in-band cells (located with two binary searches over the
    monotone ``i + lo_i`` / ``i + hi_i`` keys) and costs are computed
    cell-wise on the fly.  Only the two previous anti-diagonals are needed by
    the recurrence, so three rotating O(n) buffers replace the full table:
    work is O(n·band) and memory O(n), matching the scalar banded loop this
    replaces.  Returns ``inf`` when the band admits no warping path.
    """
    n, m = a.shape[0], b.shape[0]
    rows = np.arange(1, n + 1)
    first_diag = rows + lo  # first anti-diagonal touching row i, non-decreasing
    last_diag = rows + hi  # last anti-diagonal touching row i, non-decreasing

    # Buffers indexed by i hold one anti-diagonal each: cell (i, d - i) of
    # diagonal d lives at index i.  `*_span` tracks which slice a buffer has
    # written so recycling it only resets that slice.
    prev2 = np.full(n + 1, np.inf)  # diagonal d-2; starts as d=0: {(0,0): 0}
    prev2[0] = 0.0
    prev2_span = (0, 0)
    prev1 = np.full(n + 1, np.inf)  # diagonal d-1; d=1 is all inf
    prev1_span = None
    cur = np.full(n + 1, np.inf)
    cur_stale = None
    result = np.inf
    for d in range(2, n + m + 1):
        if cur_stale is not None:
            cur[cur_stale[0] : cur_stale[1] + 1] = np.inf
        i_lo = int(np.searchsorted(last_diag, d, side="left")) + 1
        i_hi = int(np.searchsorted(first_diag, d, side="right"))
        i_lo = max(i_lo, 1, d - m)
        i_hi = min(i_hi, n, d - 1)
        if i_lo <= i_hi:
            i = np.arange(i_lo, i_hi + 1)
            best = np.minimum(np.minimum(prev1[i - 1], prev1[i]), prev2[i - 1])
            cur[i] = np.abs(a[i - 1] - b[d - i - 1]) + best
            cur_span = (i_lo, i_hi)
        else:
            cur_span = None
        if d == n + m:
            result = cur[n]
        prev2, prev1, cur = prev1, cur, prev2
        prev2_span, prev1_span, cur_stale = prev1_span, cur_span, prev2_span
    return float(result)


def dtw_distance_banded(
    a: np.ndarray,
    b: np.ndarray,
    band: Optional[int] = None,
    normalize: bool = True,
) -> float:
    """Sakoe–Chiba banded DTW (vectorised anti-diagonal sweep).

    Parameters
    ----------
    band:
        Maximum allowed |i - j| deviation from the diagonal (after the
        shorter series is conceptually stretched to the longer one).  Defaults
        to 10% of the longer series, but never less than the length
        difference (otherwise no warping path would exist).
    """
    a = _validate(a, "a")
    b = _validate(b, "b")
    if normalize:
        a, b = znormalize(a), znormalize(b)
    n, m = a.shape[0], b.shape[0]
    if band is None:
        band = max(n, m) // 10
    band = max(band, abs(n - m), 1)

    lo, hi = _band_bounds(n, m, band)
    result = _banded_sweep(a, b, lo, hi)
    if np.isinf(result):
        # Band too tight to contain any path; fall back to the exact DTW.
        return dtw_distance(a, b, normalize=False)
    return result


def dtw_path(a: np.ndarray, b: np.ndarray, normalize: bool = True):
    """Exact DTW returning both the distance and the optimal warping path.

    The path is a list of ``(i, j)`` index pairs into ``a`` and ``b``.  Used
    by diagnostics and by tests validating DTW's continuity/boundary
    properties.
    """
    a = _validate(a, "a")
    b = _validate(b, "b")
    if normalize:
        a, b = znormalize(a), znormalize(b)
    n, m = a.shape[0], b.shape[0]
    acc = _accumulate_antidiagonal(np.abs(a[:, None] - b[None, :]))
    # Backtrack.
    path = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        moves = [
            (acc[i - 1, j - 1], i - 1, j - 1),
            (acc[i - 1, j], i - 1, j),
            (acc[i, j - 1], i, j - 1),
        ]
        _, i, j = min(moves, key=lambda item: item[0])
    path.reverse()
    return float(acc[n, m]), path
