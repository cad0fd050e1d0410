"""``repro.serving`` — incremental, sharded, persistent, multi-process serving.

The serving layer keeps the hybrid interval-tree + LSH index alive as a
long-running service instead of a one-shot batch build: incremental
add/remove of tables, multi-process sharded encoding at build time,
process-level parallel query verification (:mod:`repro.serving.workers`),
snapshots that survive restarts — one memory-mappable flat-array format,
with append-only segments for small deltas (:mod:`repro.serving.persistence`, ``ServingConfig(mmap_index=True)``) —
an LRU result cache and per-strategy query statistics.  See
:class:`SearchService` for the facade, ``docs/ARCHITECTURE.md`` ("Serving")
for how it sits on the layers and ``docs/SERVING_OPS.md`` for the
operator's guide.
"""

from .http.server import ChartSearchServer, HTTPServingConfig
from .persistence import (
    SNAPSHOT_VERSION,
    SnapshotError,
    compact_snapshot,
    load_processor,
    save_processor,
    snapshot_segments,
)
from .service import (
    CLOSED_FALLBACK_REASON,
    SearchService,
    ServiceStats,
    ServingConfig,
    StrategyStats,
)
from .sharding import (
    ShardBuildReport,
    build_worker_scorer,
    encode_tables_sharded,
    shard_tables,
)
from .streaming import (
    STREAM_SEGMENT_SEP,
    AppendResult,
    StreamingConfig,
    SubscriptionEngine,
    SubscriptionEvent,
    SubscriptionStats,
    append_stream_rows,
    segment_table_id,
)
from .workers import QueryWorkerPool, WorkerPoolError

__all__ = [
    "CLOSED_FALLBACK_REASON",
    "SNAPSHOT_VERSION",
    "STREAM_SEGMENT_SEP",
    "AppendResult",
    "ChartSearchServer",
    "HTTPServingConfig",
    "QueryWorkerPool",
    "SearchService",
    "ServiceStats",
    "ServingConfig",
    "ShardBuildReport",
    "SnapshotError",
    "StrategyStats",
    "StreamingConfig",
    "SubscriptionEngine",
    "SubscriptionEvent",
    "SubscriptionStats",
    "WorkerPoolError",
    "append_stream_rows",
    "build_worker_scorer",
    "compact_snapshot",
    "encode_tables_sharded",
    "load_processor",
    "save_processor",
    "segment_table_id",
    "shard_tables",
    "snapshot_segments",
]
