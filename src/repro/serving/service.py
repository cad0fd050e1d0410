"""``SearchService`` — a long-lived, mutable, persistent chart-query service.

The paper treats the hybrid index as a one-shot batch build; this facade
keeps it alive as a *service*:

* **incremental maintenance** — :meth:`SearchService.add_tables` /
  :meth:`SearchService.remove_tables` mutate the interval tree, the LSH and
  the scorer's encoding cache in place, with query results provably
  identical to a from-scratch rebuild;
* **sharded builds** — :meth:`SearchService.build` can fan table encoding
  out across worker processes (:mod:`repro.serving.sharding`) and merge the
  caches;
* **persistence** — :meth:`SearchService.save_index` /
  :meth:`SearchService.load_index` snapshot cached encodings, column
  embeddings and interval data so a restart never re-encodes the repository;
* **serving ergonomics** — an LRU result cache invalidated on any index
  mutation, and per-strategy latency / candidate-count statistics.

Example
-------
>>> service = SearchService(model)
>>> service.build(repository.tables, num_workers=4)     # sharded encode
>>> service.query(chart, k=5).ranking                    # cold
>>> service.query(chart, k=5)                            # warm (cached)
>>> service.add_tables(new_tables)                       # incremental, cache invalidated
>>> service.save_index("index.npz")
>>> restarted = SearchService.load_index(model, "index.npz")
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.model import FCMModel
from ..fcm.scorer import FCMScorer
from ..index.hybrid import (
    INDEXING_STRATEGIES,
    HybridQueryProcessor,
    IndexBuildStats,
    QueryResult,
)
from ..index.lsh import LSHConfig
from ..obs import (
    current_span,
    get_logger,
    get_registry,
    maybe_log_slow_query,
    span,
    start_trace,
)
from ..vision.extractor import VisualElementExtractor
from .persistence import PathLike, compact_snapshot, load_processor, save_processor
from .sharding import ShardBuildReport, encode_tables_sharded
from .streaming import (
    AppendResult,
    StreamingConfig,
    SubscriptionEngine,
    SubscriptionEvent,
    append_stream_rows,
)
from .workers import QueryWorkerPool, split_shards

_log = get_logger("repro.serving.service")

#: The sticky fallback reason recorded by :meth:`SearchService.close`:
#: queries after ``close()`` serve in-process instead of silently
#: respawning a worker pool; :meth:`SearchService.reset_query_pool` re-arms.
CLOSED_FALLBACK_REASON = (
    "service closed (SearchService.close()); queries serve in-process — "
    "call reset_query_pool() to re-arm the worker pool"
)


@dataclass
class ServingConfig:
    """Knobs of the serving layer (index parameters live in ``LSHConfig``).

    Attributes
    ----------
    lsh_config:
        Parameters of the LSH index structure.
    result_cache_size:
        Number of ``(chart, k, strategy)`` results memoised between index
        mutations; ``0`` disables the cache.
    num_workers:
        Default worker-process count for :meth:`SearchService.build`
        (``<= 1`` encodes in-process).
    query_workers:
        When ``>= 2``, candidate verification runs on a persistent
        process-level worker pool (:class:`repro.serving.workers.QueryWorkerPool`):
        each worker rehydrates the model once, receives incremental cache
        syncs, and scores one shard of the candidates per query (shards =
        workers).  Scores agree with in-process serving to <= 1e-8 in
        float64 and rankings follow; any pool failure falls back in-process
        (sticky — see :meth:`SearchService.reset_query_pool`).
        ``0`` (default) and ``1`` verify in-process.
    worker_timeout:
        Per-operation wall-clock guard (seconds) for the query worker pool —
        the start handshake, a sync broadcast and each per-query
        scatter/gather all honour it; on expiry the query is re-verified
        in-process and the pool is retired.  Defaults to ``30.0`` so a
        wedged worker can never block a query forever; ``None`` (explicit
        opt-in) waits indefinitely.
    build_timeout:
        Optional wall-clock guard (seconds) for a sharded build; on expiry
        the build falls back to the in-process encode.
    dtype:
        Expected numeric precision of the served model (``"float32"`` /
        ``"float64"``); ``None`` accepts whatever the model was built with.
        When set, :class:`SearchService` refuses a model of a different
        precision at construction — a deployment guard so a float64 service
        cannot silently restart on float32 weights (snapshots are
        additionally self-validating, see :mod:`repro.serving.persistence`).
    mmap_index:
        When ``True``, :meth:`SearchService.load_index` memory-maps the
        snapshot's base instead of copying it onto the heap (zero-copy
        read-only views into the ``.npy`` sidecars; tables recorded by
        append segments load as copies) and query workers open the same
        mapping themselves at start instead of receiving pickled encodings.
        It affects loading only — every snapshot is written in the one,
        mappable format.  Rankings are identical to the copy path;
        worker-pool RSS stops scaling with O(workers × index) because every
        process shares the one page-cache copy.  Default ``False`` (copy
        path).
    tracing:
        When ``True``, :meth:`SearchService.query` opens a trace root for
        every query served without an ambient trace (callers that already
        started one — the HTTP tier — keep their own root): the finished
        span tree lands on :attr:`SearchService.last_trace` and feeds the
        ``REPRO_SLOW_QUERY_MS`` slow-query log.  Rankings are unaffected;
        the instrumented stages cost a context-variable read each when
        tracing is off (the ≤5 % overhead bound is measured in
        ``benchmarks/test_serving_throughput.py``).  Default ``False``.
    quantized_prefilter:
        When ``True``, queries first rank all LSH/interval candidates with
        the int8 symmetric-quantized encodings and keep only
        ``k * prefilter_overscan`` for exact float verification — trading
        a bounded recall risk for an order of magnitude less exact
        scoring on large candidate sets.  Default ``False`` (exact).
    prefilter_overscan:
        Overscan multiplier for the quantized pre-filter: exact scoring
        sees ``k * prefilter_overscan`` survivors.  Larger values push
        top-``k`` recall toward 1.0 at higher verification cost;
        ``8`` (default) holds recall ≥ 0.99 on the trained benchmark
        fixture.  Only meaningful with ``quantized_prefilter=True``.
    streaming:
        Knobs of the streaming ingest + subscription path
        (:class:`repro.serving.streaming.StreamingConfig`): window size of
        the segment decomposition, per-subscription event queue bound and
        the coarse-pass overscan used when notifying on ingest.  ``None``
        uses the defaults.
    """

    lsh_config: Optional[LSHConfig] = None
    result_cache_size: int = 128
    num_workers: int = 1
    query_workers: int = 0
    worker_timeout: Optional[float] = 30.0
    build_timeout: Optional[float] = None
    dtype: Optional[str] = None
    mmap_index: bool = False
    tracing: bool = False
    quantized_prefilter: bool = False
    prefilter_overscan: int = 8
    streaming: Optional[StreamingConfig] = None

    def __post_init__(self) -> None:
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.query_workers < 0:
            raise ValueError("query_workers must be >= 0")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive (or None)")
        if self.build_timeout is not None and self.build_timeout <= 0:
            raise ValueError("build_timeout must be positive (or None)")
        if self.prefilter_overscan < 1:
            raise ValueError("prefilter_overscan must be >= 1")
        if self.dtype is not None:
            from ..nn import resolve_dtype

            self.dtype = resolve_dtype(self.dtype).name


@dataclass
class StrategyStats:
    """Accumulated query statistics for one indexing strategy."""

    queries: int = 0
    cache_hits: int = 0
    total_seconds: float = 0.0
    total_candidates: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.queries if self.queries else 0.0

    @property
    def mean_candidates(self) -> float:
        return self.total_candidates / self.queries if self.queries else 0.0


@dataclass
class ServiceStats:
    """Everything the service has done since construction."""

    per_strategy: Dict[str, StrategyStats] = field(
        default_factory=lambda: {s: StrategyStats() for s in INDEXING_STRATEGIES}
    )
    tables_added: int = 0
    tables_removed: int = 0
    invalidations: int = 0
    #: Queries whose verification stage ran on the process-level worker pool.
    worker_queries: int = 0
    #: Times the worker pool failed and verification fell back in-process.
    worker_fallbacks: int = 0
    #: Why queries currently verify in-process instead of on the pool
    #: (``None`` while the pool is usable).  Mirrors
    #: :attr:`SearchService.worker_fallback_reason`.
    worker_fallback_reason: Optional[str] = None
    #: ``"closed"`` when the reason is the deliberate seal set by
    #: :meth:`SearchService.close`, ``"failure"`` for crash-/timeout-induced
    #: retirement, ``None`` when no fallback is in effect — so an operator
    #: (or the ``/metrics`` payload) can tell a drained service from a
    #: broken one at a glance.
    worker_fallback_kind: Optional[str] = None
    #: Rows ingested through :meth:`SearchService.append_rows`.
    rows_appended: int = 0
    #: Ingest batches processed.
    append_batches: int = 0
    #: Window segments (re-)encoded across all ingest batches.
    segments_encoded: int = 0
    #: Subscription events fired across all ingest batches.
    subscription_events: int = 0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """A plain-dict snapshot (JSON-friendly, used by the benchmarks)."""
        return {
            strategy: {
                "queries": stats.queries,
                "cache_hits": stats.cache_hits,
                "mean_seconds": stats.mean_seconds,
                "mean_candidates": stats.mean_candidates,
            }
            for strategy, stats in self.per_strategy.items()
            if stats.queries or stats.cache_hits
        }


class SearchService:
    """Facade over the scorer + index layers for serving chart queries."""

    def __init__(
        self,
        model: FCMModel,
        config: Optional[ServingConfig] = None,
        extractor: Optional[VisualElementExtractor] = None,
    ) -> None:
        self.config = config or ServingConfig()
        model_dtype = model.config.numeric_dtype.name
        if self.config.dtype is not None and self.config.dtype != model_dtype:
            raise ValueError(
                f"ServingConfig expects a {self.config.dtype} model, got "
                f"{model_dtype}; construct the model under the matching "
                f"precision policy (e.g. REPRO_DTYPE={self.config.dtype})"
            )
        self.scorer = FCMScorer(model, extractor=extractor)
        self.processor = HybridQueryProcessor(
            self.scorer, lsh_config=self.config.lsh_config
        )
        self.stats = ServiceStats()
        self.streaming = self.config.streaming or StreamingConfig()
        # Standing pattern queries, evaluated against each ingest batch's
        # dirty segments (see repro.serving.streaming).  In-memory serving
        # state: not persisted in snapshots.
        self._subscriptions = SubscriptionEngine(self.scorer, self.streaming)
        self.last_shard_report: Optional[ShardBuildReport] = None
        # Process-level query verification (config.query_workers >= 2): the
        # pool is created lazily on the first query, kept in sync with index
        # mutations by diffing table ids, and retired permanently on the
        # first failure (worker_fallback_reason records why).
        self._query_pool: Optional[QueryWorkerPool] = None
        self._pool_table_ids: set = set()
        # Ids removed since the last pool sync: a re-add under the same id
        # re-encodes the table, so workers must receive the fresh payload
        # even though the id-level diff looks unchanged.
        self._pool_removed_ids: set = set()
        # Set by load_index(..., mmap active): workers open this snapshot
        # themselves instead of receiving the base encodings over the pipe.
        self._mmap_snapshot_path: Optional[PathLike] = None
        # Ids removed since the snapshot was loaded: a freshly started pool
        # preloads *snapshot* content for them, so they must be re-shipped
        # even though _pool_removed_ids was cleared by an earlier sync or
        # pool retirement.  Monotonic on purpose — over-refreshing is just a
        # slightly larger first sync, under-refreshing would serve stale
        # encodings.
        self._mmap_dirty_ids: set = set()
        #: The serialised span tree of the most recent query that ran under a
        #: service-minted trace (``ServingConfig(tracing=True)``); ``None``
        #: until one completes.  HTTP-minted traces live on the HTTP tier.
        self.last_trace: Optional[Dict] = None
        # (chart content hash, k, strategy) -> QueryResult (same content-hash
        # idiom as FCMScorer.prepare_query): equal charts from different
        # objects share entries, and mutating a chart in place changes its
        # key, so a stale result can never be served.
        self._result_cache: "OrderedDict[Tuple[str, int, str], QueryResult]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------ #
    # Build + incremental maintenance
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> FCMModel:
        return self.scorer.model

    @property
    def num_tables(self) -> int:
        return len(self.processor.table_ids)

    @property
    def table_ids(self) -> List[str]:
        return self.processor.table_ids

    def build(
        self,
        tables: Iterable[Table],
        num_workers: Optional[int] = None,
    ) -> IndexBuildStats:
        """Encode and index a repository, optionally across worker processes.

        With ``num_workers > 1`` the table encodings are computed by a
        process pool (identical to the single-process cached encodings; see
        :func:`repro.serving.sharding.encode_tables_sharded`) and merged into
        the scorer cache; the interval tree and LSH are then built from the
        merged cache.  Falls back to the in-process encode if the pool
        cannot be used (reported on :attr:`last_shard_report`).
        """
        tables = list(tables)
        workers = self.config.num_workers if num_workers is None else num_workers
        if workers > 1 and len(tables) > 1:
            encoded, report = encode_tables_sharded(
                self.model, tables, num_workers=workers, timeout=self.config.build_timeout
            )
            self.last_shard_report = report
            for item in encoded:
                self.scorer.add_encoded(item)
        # The scorer skips already-encoded tables, so after a sharded merge
        # this only builds the interval tree and LSH.
        stats = self.processor.index_repository(tables)
        self._invalidate()
        _log.info(
            "index_built",
            tables=stats.num_tables,
            workers=workers,
            encode_threads=stats.encode_threads,
            interval_seconds=stats.interval_seconds,
            lsh_seconds=stats.lsh_seconds,
            sharded=self.last_shard_report is not None
            and self.last_shard_report.used_processes,
        )
        return stats

    def add_tables(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Incrementally index new tables (invalidates the result cache)."""
        tables = list(tables)
        stats = self.processor.add_tables(tables)
        self.stats.tables_added += len(tables)
        self._invalidate()
        _log.info("tables_added", count=len(tables), total=stats.num_tables)
        return stats

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure (invalidates the result cache)."""
        table_ids = list(table_ids)
        known = set(self.processor.table_ids)
        removed = self.processor.remove_tables(table_ids)
        self.stats.tables_removed += removed
        if removed:
            gone = {t for t in table_ids if t in known}
            self._pool_removed_ids.update(gone)
            self._mmap_dirty_ids.update(gone)
            self._invalidate()
            _log.info("tables_removed", count=removed, total=self.num_tables)
        return removed

    # ------------------------------------------------------------------ #
    # Streaming ingest + subscriptions (repro.serving.streaming)
    # ------------------------------------------------------------------ #
    @property
    def subscriptions(self) -> SubscriptionEngine:
        """The standing-query engine (see :meth:`subscribe` / :meth:`poll`)."""
        return self._subscriptions

    def append_rows(
        self,
        table_id: str,
        rows: Dict[str, Sequence[float]],
        roles: Optional[Dict[str, str]] = None,
    ) -> AppendResult:
        """Append rows to a streaming table, re-encoding only dirty windows.

        The first append for an unknown ``table_id`` creates the stream
        (window size fixed from ``ServingConfig.streaming.segment_rows``);
        later appends must carry the same columns.  Only the window segments
        the batch touches are re-encoded — sealed windows keep their cached
        encodings, interval entries and LSH codes — and the post-append
        state is provably identical to replaying the full row history in one
        batch (``tests/test_streaming.py``).  After the index update, every
        standing subscription is notified against the dirty segments only
        (coarse int8 pass first on large batches) and the result cache is
        invalidated.

        Under ``ServingConfig(tracing=True)`` a trace root is minted per
        ingest batch when no ambient trace is active, mirroring
        :meth:`query`; the tree lands on :attr:`last_trace`.
        """
        if self.config.tracing and current_span() is None:
            with start_trace("append_rows", table_id=table_id) as root:
                result = self._append_impl(table_id, rows, roles)
            self.last_trace = root.to_dict()
            maybe_log_slow_query(self.last_trace)
            return result
        return self._append_impl(table_id, rows, roles)

    def _append_impl(
        self,
        table_id: str,
        rows: Dict[str, Sequence[float]],
        roles: Optional[Dict[str, str]],
    ) -> AppendResult:
        with span("append_rows", table_id=table_id) as sp:
            result = append_stream_rows(
                self.processor,
                table_id,
                rows,
                segment_rows=self.streaming.segment_rows,
                roles=roles,
            )
            if sp is not None:
                sp.attributes["rows"] = result.rows_appended
                sp.attributes["dirty_segments"] = len(result.dirty_segments)
                sp.attributes["segments_total"] = result.segments_total
                sp.attributes["created"] = result.created
        self.stats.rows_appended += result.rows_appended
        self.stats.append_batches += 1
        self.stats.segments_encoded += len(result.dirty_segments)
        if result.created:
            self.stats.tables_added += 1
        # Workers hold the composed parent entry under the parent id: the
        # mutation-after-map dirty-id protocol re-ships it on the next sync
        # (and forces preloaded mmap segment state to refresh).
        self._pool_removed_ids.add(table_id)
        self._mmap_dirty_ids.add(table_id)
        self._invalidate()
        registry = get_registry()
        registry.counter(
            "repro_ingest_rows_total", "Rows ingested via append_rows"
        ).inc(result.rows_appended)
        registry.counter(
            "repro_ingest_batches_total", "Ingest batches processed"
        ).inc()
        registry.histogram(
            "repro_ingest_reencode_fraction",
            "Fraction of a stream's segments re-encoded per ingest batch",
        ).observe(result.reencode_fraction)
        with span("notify", subscriptions=len(self._subscriptions)):
            result.events_fired = self._subscriptions.notify(
                {table_id: result.dirty_segments},
                {table_id: result.total_rows},
            )
        self.stats.subscription_events += result.events_fired
        _log.info(
            "rows_appended",
            table_id=table_id,
            rows=result.rows_appended,
            total_rows=result.total_rows,
            dirty_segments=len(result.dirty_segments),
            segments_total=result.segments_total,
            events=result.events_fired,
        )
        return result

    def subscribe(
        self,
        chart: LineChart,
        k: int = 1,
        threshold: float = 0.0,
        callback=None,
    ) -> str:
        """Register a standing pattern query; returns its subscription id.

        On every subsequent ingest batch the subscription scores that
        batch's dirty segments (coarse pass first when many are dirty) and
        fires up to ``k`` events with exact score ``>= threshold`` into its
        queue (drained by :meth:`poll`) and the optional ``callback``.
        Subscriptions are in-memory: re-subscribe after a snapshot restore.
        """
        return self._subscriptions.subscribe(
            chart, k=k, threshold=threshold, callback=callback
        )

    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop a standing query; returns whether it existed."""
        return self._subscriptions.unsubscribe(subscription_id)

    def poll(
        self, subscription_id: str, max_events: Optional[int] = None
    ) -> List[SubscriptionEvent]:
        """Drain (up to ``max_events``) pending events of one subscription."""
        return self._subscriptions.poll(subscription_id, max_events=max_events)

    # ------------------------------------------------------------------ #
    # Process-level query verification (QueryWorkerPool)
    # ------------------------------------------------------------------ #
    @property
    def query_pool(self) -> Optional[QueryWorkerPool]:
        """The live worker pool, or ``None`` (not configured / not yet
        started / retired after a failure — see :attr:`worker_fallback_reason`)."""
        return self._query_pool

    @property
    def worker_fallback_reason(self) -> Optional[str]:
        """Why queries verify in-process instead of on the pool (sticky).

        ``None`` while the pool is usable.  Stored on :attr:`stats` together
        with :attr:`ServiceStats.worker_fallback_kind`, which distinguishes
        the deliberate :meth:`close` seal (``"closed"``) from crash-induced
        retirement (``"failure"``).
        """
        return self.stats.worker_fallback_reason

    @worker_fallback_reason.setter
    def worker_fallback_reason(self, reason: Optional[str]) -> None:
        self.stats.worker_fallback_reason = reason
        if reason is None:
            self.stats.worker_fallback_kind = None
        elif reason == CLOSED_FALLBACK_REASON:
            self.stats.worker_fallback_kind = "closed"
        else:
            self.stats.worker_fallback_kind = "failure"

    @property
    def mmap_active(self) -> bool:
        """``True`` when this service serves a memory-mapped snapshot.

        Set by :meth:`load_index` under ``ServingConfig(mmap_index=True)``;
        ``False`` for built-in-process indexes and copy-path loads.
        """
        return self._mmap_snapshot_path is not None

    def _ensure_query_pool(self) -> Optional[QueryWorkerPool]:
        if self.config.query_workers < 2 or self.worker_fallback_reason is not None:
            return None
        if self._query_pool is None:
            try:
                pool = QueryWorkerPool(
                    self.model,
                    self.config.query_workers,
                    start_timeout=self.config.worker_timeout,
                    mmap_snapshot=self._mmap_snapshot_path,
                )
                pool.start()
            except Exception as exc:  # degrade, never fail the query
                self._retire_query_pool(f"{type(exc).__name__}: {exc}")
                return None
            self._query_pool = pool
            # Workers report what they mapped from the snapshot (exactly,
            # even if segments landed between our load and their start);
            # that is the sync baseline.  Anything mutated since the load
            # may be stale in the mapping and is queued for a re-ship.
            self._pool_table_ids = set(pool.preloaded_table_ids)
            self._pool_removed_ids |= self._mmap_dirty_ids & self._pool_table_ids
        return self._query_pool

    def _retire_query_pool(self, reason: str) -> None:
        self.worker_fallback_reason = reason
        self.stats.worker_fallbacks += 1
        _log.info("worker_pool_retired", reason=reason, kind="failure")
        if self._query_pool is not None:
            self._query_pool.close()
            self._query_pool = None
        self._pool_table_ids = set()
        self._pool_removed_ids = set()

    def reset_query_pool(self) -> None:
        """Forget a recorded pool failure so the next query retries the pool.

        The fallback is sticky by design — a broken pool should not add a
        spawn attempt to every query's latency — so an operator (or a test)
        that has fixed the underlying condition opts back in explicitly.
        This is also the only way to re-arm a service after
        :meth:`close` (the closed state is just another sticky reason).
        """
        self.worker_fallback_reason = None

    def _sync_query_pool(self, pool: QueryWorkerPool) -> None:
        """Ship the table-cache diff since the last sync to every worker.

        The diff is content-aware, not just id-aware: a table removed and
        re-added under the same id was re-encoded by the parent, so its id
        lands in ``_pool_removed_ids`` and the fresh payload is re-shipped
        (a worker-side ``add_encoded`` overwrites the stale entry).
        """
        current = set(self.processor.table_ids)
        refresh = current & self._pool_table_ids & self._pool_removed_ids
        added = sorted((current - self._pool_table_ids) | refresh)
        evicted = sorted(self._pool_table_ids - current)
        if added or evicted:
            pool.sync(
                [self.scorer.encoded_table(table_id) for table_id in added],
                evicted,
                timeout=self.config.worker_timeout,
            )
        self._pool_table_ids = current
        self._pool_removed_ids.clear()

    def _verify_with_workers(self, chart_input, ordered_ids):
        """Verification hook handed to :meth:`HybridQueryProcessor.query`.

        Scatters one contiguous shard of the candidates to each worker and
        returns the gathered scores, or ``None`` after retiring the pool on
        any failure (the processor then verifies in-process — the query
        always succeeds).
        """
        pool = self._ensure_query_pool()
        if pool is None:
            return None
        try:
            self._sync_query_pool(pool)
            shards = split_shards(ordered_ids, pool.num_workers)
            with span(
                "scatter_gather", shards=len(shards), workers=pool.num_workers
            ):
                scores = pool.score(
                    chart_input, shards, timeout=self.config.worker_timeout
                )
        except Exception as exc:
            self._retire_query_pool(f"{type(exc).__name__}: {exc}")
            return None
        self.stats.worker_queries += 1
        return scores

    def close(self) -> None:
        """Release the query worker pool and seal the service against respawns.

        Idempotent and safe without a pool.  Closing does **not** stop the
        service from answering: subsequent queries are served in-process —
        but the closed state is explicit, recorded as a sticky fallback
        reason (:data:`CLOSED_FALLBACK_REASON`), so a query arriving after
        ``close()`` (or after the context manager exits) can never silently
        respawn a whole worker pool and leak processes.
        :meth:`reset_query_pool` is the one way to re-arm the pool on a
        service being brought back into use.
        """
        if self._query_pool is not None:
            self._query_pool.close()
            self._query_pool = None
        self._pool_table_ids = set()
        self._pool_removed_ids = set()
        if self.config.query_workers >= 2 and self.worker_fallback_reason is None:
            # Not counted in stats.worker_fallbacks: nothing failed.
            self.worker_fallback_reason = CLOSED_FALLBACK_REASON
            _log.info("service_closed", kind="closed")

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Query serving
    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        if self._result_cache:
            self.stats.invalidations += 1
        self._result_cache.clear()

    def query(
        self,
        chart: LineChart,
        k: int,
        strategy: str = "hybrid",
    ) -> QueryResult:
        """Top-``k`` search with result caching and per-strategy statistics.

        Repeated queries for the same chart *content* (unmutated index) are
        served from an LRU cache — a re-rendered but pixel-identical chart
        hits the same entry; any :meth:`add_tables` / :meth:`remove_tables`
        / :meth:`build` call invalidates the cache.

        With ``ServingConfig(query_workers=N)`` the verification stage runs
        on the persistent process pool (scores within 1e-8; see
        :mod:`repro.serving.workers`); a pool failure silently re-verifies
        in-process and retires the pool.

        With ``ServingConfig(tracing=True)`` a trace root is minted here
        when no ambient trace is active (the HTTP tier mints its own at the
        boundary); the finished tree lands on :attr:`last_trace` and, past
        ``REPRO_SLOW_QUERY_MS``, in the slow-query log.

        With ``ServingConfig(quantized_prefilter=True)`` the candidate set
        is first ranked by the int8 quantized encodings and only the top
        ``k * prefilter_overscan`` survive to exact verification
        (:attr:`QueryResult.prefiltered` reports the survivor count).
        """
        if self.config.tracing and current_span() is None:
            with start_trace("query", k=int(k), strategy=strategy) as root:
                result = self._query_impl(chart, k, strategy)
            self.last_trace = root.to_dict()
            maybe_log_slow_query(self.last_trace)
            return result
        return self._query_impl(chart, k, strategy)

    def _query_impl(self, chart: LineChart, k: int, strategy: str) -> QueryResult:
        fingerprint = chart.fingerprint()
        key = (fingerprint, int(k), strategy)
        with span("cache") as sp:
            hit = self._result_cache.get(key)
            if sp is not None:
                sp.attributes["hit"] = hit is not None
        if hit is not None:
            self._result_cache.move_to_end(key)
            self.stats.per_strategy[strategy].cache_hits += 1
            return hit

        verifier = None
        if self.config.query_workers >= 2 and self.worker_fallback_reason is None:
            verifier = self._verify_with_workers
        prefilter_keep = (
            int(k) * self.config.prefilter_overscan
            if self.config.quantized_prefilter
            else None
        )
        result = self.processor.query(
            chart,
            k,
            strategy=strategy,
            verifier=verifier,
            prefilter_keep=prefilter_keep,
            fingerprint=fingerprint,
        )

        stats = self.stats.per_strategy[strategy]
        stats.queries += 1
        stats.total_seconds += result.seconds
        stats.total_candidates += result.candidates

        if self.config.result_cache_size > 0:
            self._result_cache[key] = result
            while len(self._result_cache) > self.config.result_cache_size:
                self._result_cache.popitem(last=False)
        return result

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_index(
        self,
        path: PathLike,
        append: bool = False,
        layout: Optional[str] = None,
    ) -> "PathLike":
        """Snapshot cached encodings, column embeddings and intervals to ``path``.

        ``append=True`` writes only the delta since the base snapshot (plus
        earlier segments) as a numbered append-only segment next to it — the
        right call after a small :meth:`add_tables` / :meth:`remove_tables`
        batch: it writes O(delta) bytes, though it still hashes every live
        encoding to catch same-id content changes (115 ms vs 582 ms for a
        full save at 10⁴ tables).  The format does not depend on this
        service's configuration; ``layout`` is vestigial (``None`` or
        ``"v2"``, anything else raises ``ValueError``).  Returns the path
        written (the base for a full save or an empty delta, the new segment
        file otherwise).  See :func:`repro.serving.persistence.save_processor`.
        """
        return save_processor(self.processor, path, append, layout)

    @staticmethod
    def compact_snapshot(path: PathLike) -> "PathLike":
        """Fold a snapshot's append-only segments back into its base.

        Convenience re-export of
        :func:`repro.serving.persistence.compact_snapshot` — run it when a
        snapshot has accumulated enough segments that replay cost (or file
        count) matters; loading is equivalent before and after.
        """
        return compact_snapshot(path)

    @classmethod
    def load_index(
        cls,
        model: FCMModel,
        path: PathLike,
        config: Optional[ServingConfig] = None,
        extractor: Optional[VisualElementExtractor] = None,
    ) -> "SearchService":
        """Restore a service from a snapshot without re-encoding any table.

        The snapshot's LSH configuration wins over ``config.lsh_config`` (the
        lineage was saved under it; the codes are rehashed with it);
        everything else of ``config`` applies.
        Under ``ServingConfig(mmap_index=True)`` the base is memory-mapped
        (zero-copy views; query workers open the same mapping at start),
        reported by :attr:`mmap_active`.
        """
        service = cls(model, config=config, extractor=extractor)
        mmap = service.config.mmap_index
        service.processor = load_processor(model, path, scorer=service.scorer, mmap=mmap)
        if mmap:
            service._mmap_snapshot_path = path
        return service
