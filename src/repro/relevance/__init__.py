"""``repro.relevance`` — ground-truth relevance: DTW, matching, Rel(D, T)."""

from .cache import (
    RelevanceCache,
    RelevanceCacheInfo,
    clear_relevance_cache,
    relevance_cache,
    relevance_cache_info,
    set_relevance_cache_enabled,
)
from .dtw import dtw_distance, dtw_distances, znormalize
from .matching import MatchingResult, max_weight_matching, max_weight_matching_networkx
from .relevance import RelevanceComputer, RelevanceScore, low_level_relevance

__all__ = [
    "MatchingResult",
    "RelevanceCache",
    "RelevanceCacheInfo",
    "RelevanceComputer",
    "RelevanceScore",
    "clear_relevance_cache",
    "dtw_distance",
    "dtw_distances",
    "low_level_relevance",
    "max_weight_matching",
    "max_weight_matching_networkx",
    "relevance_cache",
    "relevance_cache_info",
    "set_relevance_cache_enabled",
    "znormalize",
]
