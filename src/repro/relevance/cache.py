"""Process-wide memo for ground-truth relevance scores.

The DTW-based ground truth is the dominant fixture cost at training time:
the trainer asks for ``Rel(D, T)`` of every (example, batch-table) pair its
minibatches rank, and later epochs — or experiments that sweep
negative-sampling strategies over the same data — ask for the *same* pairs
again and again.  Scores depend only on the data
contents and the resampling resolution, so they are memoised here under a
cheap content fingerprint (BLAKE2 over the raw arrays — O(n) against the
O(n^2) DTW it saves, and safe against reused table ids across corpora).

The memo is always on.  :func:`clear_relevance_cache` empties it (and so
releases its memory), :func:`relevance_cache_info` reports hits/misses/size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..data.table import Table, UnderlyingData


def _array_digest(values: np.ndarray) -> str:
    values = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()


def data_fingerprint(data: UnderlyingData) -> Tuple[Tuple[int, str], ...]:
    """Content fingerprint of the underlying data (y values only — DTW
    ignores x)."""
    return tuple((len(series.y), _array_digest(series.y)) for series in data)


def table_fingerprint(table: Table) -> Tuple[Tuple[str, int, str], ...]:
    """Content fingerprint of a table's columns (ids alone are not unique
    across corpora)."""
    return tuple(
        (column.name, len(column), _array_digest(column.values))
        for column in table.columns
    )


@dataclass
class RelevanceCacheInfo:
    """Snapshot of the cache state."""

    hits: int
    misses: int
    size: int


class RelevanceCache:
    """A keyed store of relevance scores."""

    def __init__(self) -> None:
        self._store: Dict[Tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def key(self, data: UnderlyingData, table: Table, max_points: int) -> Tuple:
        """Cache key for one ``Rel(D, T)`` evaluation."""
        return (data_fingerprint(data), table_fingerprint(table), max_points)

    def get(self, key: Tuple) -> Optional[float]:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Tuple, value: float) -> None:
        self._store[key] = value

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> RelevanceCacheInfo:
        return RelevanceCacheInfo(hits=self.hits, misses=self.misses, size=len(self._store))


#: The process-wide cache used by ``repro.fcm.training.ground_truth_relevances``.
_GLOBAL_CACHE = RelevanceCache()


def relevance_cache() -> RelevanceCache:
    """The process-wide relevance memo."""
    return _GLOBAL_CACHE


def clear_relevance_cache() -> None:
    _GLOBAL_CACHE.clear()


def relevance_cache_info() -> RelevanceCacheInfo:
    return _GLOBAL_CACHE.info()
