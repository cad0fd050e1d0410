"""``repro.relevance`` — ground-truth relevance: DTW, matching, Rel(D, T)."""

from .cache import (
    RelevanceCache,
    RelevanceCacheInfo,
    clear_relevance_cache,
    relevance_cache,
    relevance_cache_info,
)
from .dtw import dtw_distance, dtw_distances, znormalize
from .matching import max_weight_matching
from .relevance import relevances

__all__ = [
    "RelevanceCache",
    "RelevanceCacheInfo",
    "clear_relevance_cache",
    "dtw_distance",
    "dtw_distances",
    "max_weight_matching",
    "relevance_cache",
    "relevance_cache_info",
    "relevances",
    "znormalize",
]
