"""``SearchService`` — a long-lived, mutable, persistent chart-query service.

The paper treats the hybrid index as a one-shot batch build; this facade
keeps it alive as a *service*:

* **incremental maintenance** — :meth:`SearchService.add_tables` /
  :meth:`SearchService.remove_tables` advance the index to a new immutable
  generation (the interval rows, the LSH and the registered encodings are
  the old generation's plus the change), with query results provably
  identical to a from-scratch rebuild;
* **sharded builds** — :meth:`SearchService.build` can fan table encoding
  out across worker processes (:mod:`repro.serving.sharding`) and merge the
  caches;
* **persistence** — :meth:`SearchService.save_index` /
  :meth:`SearchService.load_index` snapshot cached encodings, column
  embeddings and interval data so a restart never re-encodes the repository;
* **serving ergonomics** — an LRU result cache invalidated on any index
  mutation, and per-strategy query / latency / candidate counts;
* **concurrency** — a query takes no lock: it reads one immutable index
  generation end to end and caches its result only for that generation.
  Writes, snapshots, subscription calls and worker-pool traffic run one at
  a time under the service's one writer lock;
* **metrics** — every count the service keeps (queries, cache hits,
  writes, worker-pool use, streaming ingest, subscription events, and its
  scorer's pack and score-row counts) is one series of the service's own
  registry (:attr:`SearchService.registry`), incremented where it happens;
  :attr:`SearchService.stats` reads them, and the HTTP tier's Prometheus
  scrape renders the registry as it stands.

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

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.model import FCMModel
from ..fcm.scorer import FCMScorer, IndexGeneration
from ..index.hybrid import (
    INDEXING_STRATEGIES,
    HybridQueryProcessor,
    IndexBuildStats,
    QueryResult,
)
from ..index.lsh import LSHConfig
from ..obs import MetricsRegistry, get_logger, span, trace_root
from .persistence import PathLike, compact_snapshot, load_processor, save_processor
from .sharding import ShardBuildReport, encode_tables_sharded
from .streaming import (
    STREAM_SEGMENT_SEP,
    AppendResult,
    StreamingConfig,
    SubscriptionEngine,
    SubscriptionEvent,
    append_stream_rows,
)
from .workers import QueryWorkerPool

_log = get_logger("repro.serving.service")


def _serialised(method):
    """``method`` under the service's writer lock (re-entrant: a callback may call back)."""

    @functools.wraps(method)
    def serialised(self, *args, **kwargs):
        with self._writing:
            return method(self, *args, **kwargs)

    return serialised


def _plain_tables(tables: Iterable[Table]) -> List[Table]:
    """``tables`` as a list, refusing an id that names a stream window: the
    stream would take that table over as its window (the rule
    :func:`~repro.serving.streaming.append_stream_rows` applies to stream
    ids)."""
    tables = list(tables)
    for table in tables:
        if STREAM_SEGMENT_SEP in table.table_id:
            raise ValueError(
                f"table id {table.table_id!r} may not contain {STREAM_SEGMENT_SEP!r}: "
                f"ids of that form name stream windows"
            )
    return tables


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
    query_workers:
        When ``>= 2``, candidate verification runs on a process-level
        worker pool (:class:`repro.serving.workers.QueryWorkerPool`) that
        holds one index generation: each worker rehydrates the model and
        registers that generation's entries once, at start, and scores one
        shard of the candidates per query (shards = workers).  A query that
        reads another generation closes the pool and starts one for it.
        Scores agree with in-process serving to <= 1e-8 in float64 and
        rankings follow; any pool failure falls back in-process (sticky —
        see :meth:`SearchService.reset_query_pool`).  ``0`` (default) and
        ``1`` verify in-process.
    worker_timeout:
        Per-operation wall-clock guard (seconds) for the query worker pool —
        a pool's start handshake and each per-query scatter/gather honour
        it; on expiry the query is re-verified in-process and the pool is
        retired.  Defaults to ``30.0`` so a wedged worker can never block a
        query forever; ``None`` (explicit opt-in) waits indefinitely.
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
        append segments load as copies).  It affects loading only — every
        snapshot is written in the one, mappable format.  Rankings are
        identical to the copy path.  Query workers started by ``fork``
        inherit the mapped views, so they share the page-cache copy too.
        Default ``False`` (copy path).
    tracing:
        The one tracing switch.  When ``True``, :meth:`SearchService.query`
        and :meth:`SearchService.append_rows` open a trace root for every
        call made without an ambient trace, and the HTTP tier opens one at
        its boundary for every ``POST /query`` and ingest batch (the
        service's stages then nest under it): the finished span tree lands
        on the owner's ``last_trace`` and feeds the ``REPRO_SLOW_QUERY_MS``
        slow-query log.  Rankings are unaffected; the instrumented stages
        cost a context-variable read each when tracing is off, and the
        ledger's traced runs record what turning it on costs as
        ``obs.trace_overhead_frac`` (``benchmarks/ledger/``).  Default
        ``False``.
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
    query_workers: int = 0
    worker_timeout: Optional[float] = 30.0
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
        if self.prefilter_overscan < 1:
            raise ValueError("prefilter_overscan must be >= 1")
        if self.dtype is not None:
            from ..nn import resolve_dtype

            self.dtype = resolve_dtype(self.dtype).name


#: The service's counts, by :class:`ServiceStats` field: the registry
#: counter each lives in (created at 0) and its help text.
SERVICE_COUNTS = {
    "tables_added": ("service_tables_added_total", "Tables added to the live index."),
    "tables_removed": ("service_tables_removed_total", "Tables removed from the index."),
    "invalidations": (
        "service_cache_invalidations_total",
        "Result-cache invalidations caused by index mutations.",
    ),
    "worker_queries": (
        "service_worker_queries_total",
        "Queries whose verification ran on the worker pool.",
    ),
    "worker_fallbacks": (
        "service_worker_fallbacks_total",
        "Queries that fell back to in-process verification.",
    ),
    "rows_appended": ("repro_ingest_rows_total", "Rows ingested via append_rows"),
    "append_batches": ("repro_ingest_batches_total", "Ingest batches processed"),
    "segments_encoded": (
        "service_segments_encoded_total",
        "Window segments (re-)encoded by streaming ingest.",
    ),
}

#: The per-strategy counts, by :class:`StrategyStats` field: counters
#: labelled ``strategy``, a series appearing with the strategy's first query.
STRATEGY_COUNTS = {
    "queries": ("service_queries_total", "Queries served, by indexing strategy."),
    "cache_hits": ("service_cache_hits_total", "Result-cache hits, by strategy."),
    "total_seconds": (
        "service_query_seconds_total",
        "Seconds spent answering queries the result cache missed, by strategy.",
    ),
    "total_candidates": (
        "service_query_candidates_total",
        "Candidates of the queries the result cache missed, by strategy.",
    ),
}


@dataclass(frozen=True)
class StrategyStats:
    """Query statistics of one indexing strategy, as read at one moment."""

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


@dataclass(frozen=True)
class ServiceStats:
    """Everything the service has done since construction, as read from its
    registry at one moment (:attr:`SearchService.stats`)."""

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
    #: :attr:`SearchService.worker_fallback_reason` when read.
    worker_fallback_reason: Optional[str] = None
    #: :attr:`SearchService.worker_fallback_kind` when read.
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
    """Facade over the scorer + index layers for serving chart queries,
    safe to share between threads (see the module docstring)."""

    def __init__(
        self,
        model: FCMModel,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.config = config or ServingConfig()
        model_dtype = model.config.numeric_dtype.name
        if self.config.dtype is not None and self.config.dtype != model_dtype:
            raise ValueError(
                f"ServingConfig expects a {self.config.dtype} model, got "
                f"{model_dtype}; construct the model under the matching "
                f"precision policy (e.g. REPRO_DTYPE={self.config.dtype})"
            )
        #: The one store of every count the service keeps (its own,
        #: :data:`SERVICE_COUNTS` and :data:`STRATEGY_COUNTS`, its scorer's
        #: and its subscription engine's), rendered by the HTTP tier's
        #: Prometheus scrape; :attr:`stats` reads it.
        self.registry = MetricsRegistry()
        self._counts = {
            field_name: self.registry.counter(name, help_text)
            for field_name, (name, help_text) in {**SERVICE_COUNTS, **STRATEGY_COUNTS}.items()
        }
        for field_name in SERVICE_COUNTS:
            self._counts[field_name].inc(0)
        self.scorer = FCMScorer(model, registry=self.registry)
        self.processor = HybridQueryProcessor(
            self.scorer, lsh_config=self.config.lsh_config
        )
        #: Why queries verify in-process instead of on the pool (sticky):
        #: ``None`` while the pool is usable, :data:`CLOSED_FALLBACK_REASON`
        #: after :meth:`close`, the error of the failure that retired it
        #: otherwise.  :meth:`reset_query_pool` clears it.
        self.worker_fallback_reason: Optional[str] = None
        self._writing = threading.RLock()
        self.streaming = self.config.streaming or StreamingConfig()
        # Standing pattern queries, evaluated against each ingest batch's
        # dirty segments (see repro.serving.streaming).  In-memory serving
        # state: not persisted in snapshots.
        self._subscriptions = SubscriptionEngine(self.scorer, self.streaming, self.registry)
        self.last_shard_report: Optional[ShardBuildReport] = None
        # Process-level query verification (config.query_workers >= 2): a
        # pool holds the generation it was started on, is replaced by the
        # first pooled query of another one, and is retired permanently on
        # the first failure (worker_fallback_reason records why).
        self._query_pool: Optional[QueryWorkerPool] = None
        #: ``True`` when :meth:`load_index` memory-mapped this service's
        #: snapshot (``ServingConfig(mmap_index=True)``).
        self.mmap_active = False
        #: The serialised span tree of the most recent query or ingest batch
        #: that ran under a service-minted trace (``ServingConfig(tracing=True)``);
        #: ``None`` until one completes.  HTTP-minted traces live on the HTTP tier.
        self.last_trace: Optional[Dict] = None
        # (chart content hash, k, strategy) -> QueryResult of the index
        # generation numbered _result_number (same content-hash idiom as
        # FCMScorer.prepare_query): equal charts from different objects
        # share entries, a chart mutated in place changes its key, and a
        # write, through this service or not, makes a new generation.  Both
        # change under _results.
        self._result_cache: "OrderedDict[Tuple[str, int, str], QueryResult]" = (
            OrderedDict()
        )
        self._result_number = -1
        self._results = threading.Lock()

    # ------------------------------------------------------------------ #
    # Build + incremental maintenance
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> FCMModel:
        return self.scorer.model

    @property
    def stats(self) -> ServiceStats:
        """The service's counts as they stand, read from :attr:`registry`."""
        counts = self._counts
        per_strategy = {
            strategy: StrategyStats(
                queries=int(counts["queries"].value(strategy=strategy)),
                cache_hits=int(counts["cache_hits"].value(strategy=strategy)),
                total_seconds=counts["total_seconds"].value(strategy=strategy),
                total_candidates=int(counts["total_candidates"].value(strategy=strategy)),
            )
            for strategy in INDEXING_STRATEGIES
        }
        return ServiceStats(
            per_strategy=per_strategy,
            worker_fallback_reason=self.worker_fallback_reason,
            worker_fallback_kind=self.worker_fallback_kind,
            subscription_events=self._subscriptions.delivered,
            **{name: int(counts[name].value()) for name in SERVICE_COUNTS},
        )

    @property
    def num_tables(self) -> int:
        return len(self.scorer.generation.scorable[0])

    @property
    def table_ids(self) -> List[str]:
        return self.processor.table_ids

    @_serialised
    def build(self, tables: Iterable[Table], num_workers: int = 1) -> IndexBuildStats:
        """Encode and index a repository, optionally across worker processes.

        A rebuild: afterwards the index holds exactly ``tables``, each
        encoded from the ``Table`` passed, as a fresh service's build would
        (:meth:`HybridQueryProcessor.index_repository`).  With
        ``num_workers > 1`` the table encodings are computed by a process
        pool (identical to the single-process cached encodings; see
        :func:`repro.serving.sharding.encode_tables_sharded`) and merged into
        the scorer cache as they are; the interval tree and LSH are then
        built from the merged cache.  Falls back to the in-process encode if
        the pool cannot be used (reported on :attr:`last_shard_report`).
        An id containing ``STREAM_SEGMENT_SEP`` is a ``ValueError``, raised
        before anything changes.
        """
        tables = _plain_tables(tables)
        encoded = None
        if num_workers > 1 and len(tables) > 1:
            encoded, report = encode_tables_sharded(self.model, tables, num_workers)
            self.last_shard_report = report
        stats = self.processor.index_repository(tables, encoded)
        _log.info(
            "index_built",
            tables=stats.num_tables,
            workers=num_workers,
            encode_threads=stats.encode_threads,
            interval_seconds=stats.interval_seconds,
            lsh_seconds=stats.lsh_seconds,
            sharded=self.last_shard_report is not None
            and self.last_shard_report.used_processes,
        )
        return stats

    @_serialised
    def add_tables(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Incrementally index new tables; returns what the write did.  An
        id containing ``STREAM_SEGMENT_SEP`` is a ``ValueError``, raised
        before anything changes."""
        stats = self.processor.add_tables(_plain_tables(tables))
        self._counts["tables_added"].inc(len(stats.added))
        _log.info("tables_added", count=len(stats.added), total=stats.num_tables)
        return stats

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure; returns how many were removed."""
        return len(self.drop_tables(table_ids).removed)

    @_serialised
    def drop_tables(self, table_ids: Iterable[str]) -> IndexBuildStats:
        """:meth:`remove_tables`, returning what the write did, as
        :meth:`add_tables` does (``num_tables`` is the index it made)."""
        stats = self.processor.write(drop=table_ids)
        self._counts["tables_removed"].inc(len(stats.removed))
        if stats.removed:
            _log.info("tables_removed", count=len(stats.removed), total=stats.num_tables)
        return stats

    # ------------------------------------------------------------------ #
    # Streaming ingest + subscriptions (repro.serving.streaming)
    # ------------------------------------------------------------------ #
    @property
    def subscriptions(self) -> SubscriptionEngine:
        """The standing-query engine (see :meth:`subscribe` / :meth:`poll`)."""
        return self._subscriptions

    @_serialised
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
        ingest batch when no ambient trace is active, as :meth:`query`
        does; the tree lands on :attr:`last_trace`.
        """
        with trace_root(self, self.config.tracing, "append_rows", table_id=table_id):
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
        counts = self._counts
        counts["rows_appended"].inc(result.rows_appended)
        counts["append_batches"].inc()
        counts["segments_encoded"].inc(len(result.dirty_segments))
        if result.created:
            counts["tables_added"].inc()
        self.registry.histogram(
            "repro_ingest_reencode_fraction",
            "Fraction of a stream's segments re-encoded per ingest batch",
        ).observe(result.reencode_fraction)
        with span("notify", subscriptions=len(self._subscriptions)):
            result.events_fired = self._subscriptions.notify(
                {table_id: result.dirty_segments},
                {table_id: result.total_rows},
            )
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

    @_serialised
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

    @_serialised
    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop a standing query; returns whether it existed."""
        return self._subscriptions.unsubscribe(subscription_id)

    @_serialised
    def poll(
        self, subscription_id: str, max_events: Optional[int] = None
    ) -> List[SubscriptionEvent]:
        """Drain (up to ``max_events``) pending events of one subscription."""
        return self._subscriptions.poll(subscription_id, max_events=max_events)

    @_serialised
    def describe_subscriptions(self) -> List[Dict[str, object]]:
        """Every standing query, by id: its ``k``, ``threshold``, pending
        event count and delivery stats, all read between two batches."""
        return [
            dict(subscription_id=sub.subscription_id, k=sub.k, threshold=sub.threshold,
                 pending=len(sub.events), stats=sub.stats.to_dict())
            for sub in map(self._subscriptions.get, self._subscriptions.active)
        ]

    # ------------------------------------------------------------------ #
    # Process-level query verification (QueryWorkerPool)
    # ------------------------------------------------------------------ #
    @property
    def query_pool(self) -> Optional[QueryWorkerPool]:
        """The live worker pool, or ``None`` (not configured / not yet
        started / retired after a failure — see :attr:`worker_fallback_reason`)."""
        return self._query_pool

    @property
    def worker_fallback_kind(self) -> Optional[str]:
        """``"closed"`` when :attr:`worker_fallback_reason` is the deliberate
        seal set by :meth:`close`, ``"failure"`` for crash-/timeout-induced
        retirement, ``None`` when no fallback is in effect — so an operator
        (or the ``/metrics`` payload) can tell a drained service from a
        broken one at a glance."""
        reason = self.worker_fallback_reason
        if reason is None:
            return None
        return "closed" if reason == CLOSED_FALLBACK_REASON else "failure"

    def _close_query_pool(self) -> None:
        if self._query_pool is not None:
            self._query_pool.close()
            self._query_pool = None

    def _retire_query_pool(self, reason: str) -> None:
        self.worker_fallback_reason = reason
        self._counts["worker_fallbacks"].inc()
        _log.info("worker_pool_retired", reason=reason, kind="failure")
        self._close_query_pool()

    @_serialised
    def reset_query_pool(self) -> None:
        """Forget a recorded pool failure so the next query retries the pool.

        The fallback is sticky by design — a broken pool should not add a
        spawn attempt to every query's latency — so an operator (or a test)
        that has fixed the underlying condition opts back in explicitly.
        This is also the only way to re-arm a service after
        :meth:`close` (the closed state is just another sticky reason).
        """
        self.worker_fallback_reason = None

    @_serialised
    def _verify_with_workers(self, generation: IndexGeneration, chart_input, ordered_ids):
        """Verification hook handed to :meth:`HybridQueryProcessor.query`,
        bound to the query's ``generation``.

        Scores the candidates on a pool holding ``generation`` — a pool
        holding another one is closed and one is started for it (not a
        fallback) — one contiguous shard per worker, and returns the scores
        aligned with ``ordered_ids``; or ``None`` after retiring the pool on
        any failure (the processor then verifies in-process — the query
        always succeeds).  The pipes carry one query at a time.
        """
        if self.worker_fallback_reason is not None:
            return None
        try:
            pool = self._query_pool
            if pool is None or pool.number != generation.number:
                self._close_query_pool()
                pool = QueryWorkerPool(
                    self.model, self.config.query_workers, start_timeout=self.config.worker_timeout
                )
                self._query_pool = pool.start(generation)
            with span("scatter_gather", workers=pool.num_workers):
                scores = pool.score(chart_input, ordered_ids, timeout=self.config.worker_timeout)
        except Exception as exc:  # degrade, never fail the query
            self._retire_query_pool(f"{type(exc).__name__}: {exc}")
            return None
        self._counts["worker_queries"].inc()
        return scores

    @_serialised
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
        self._close_query_pool()
        if self.config.query_workers >= 2 and self.worker_fallback_reason is None:
            # Not counted in worker_fallbacks: nothing failed.
            self.worker_fallback_reason = CLOSED_FALLBACK_REASON
            _log.info("service_closed", kind="closed")

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Query serving
    # ------------------------------------------------------------------ #
    def query(
        self,
        chart: LineChart,
        k: int,
        strategy: str = "hybrid",
    ) -> QueryResult:
        """Top-``k`` search with result caching and per-strategy statistics.

        Repeated queries for the same chart *content* (unmutated index) are
        served from an LRU cache — a re-rendered but pixel-identical chart
        hits the same entry; any write to the index (:meth:`add_tables`,
        :meth:`remove_tables`, :meth:`append_rows`, :meth:`build`, or a
        write through the processor or the scorer) empties it.

        With ``ServingConfig(query_workers=N)`` the verification stage runs
        on a process pool holding the generation the query reads (scores
        within 1e-8; see :mod:`repro.serving.workers`); a pool failure
        silently re-verifies in-process and retires the pool.

        With ``ServingConfig(tracing=True)`` a trace root is minted here
        when no ambient trace is active (the HTTP tier mints its own at the
        boundary); the finished tree lands on :attr:`last_trace` and, past
        ``REPRO_SLOW_QUERY_MS``, in the slow-query log.

        With ``ServingConfig(quantized_prefilter=True)`` the candidate set
        is first ranked by the int8 quantized encodings and only the top
        ``k * prefilter_overscan`` survive to exact verification
        (:attr:`QueryResult.prefiltered` reports the survivor count).
        """
        with trace_root(self, self.config.tracing, "query", k=int(k), strategy=strategy):
            return self._query_impl(chart, k, strategy)

    def _query_impl(self, chart: LineChart, k: int, strategy: str) -> QueryResult:
        generation = self.processor.generation  # the one index this query reads
        number = generation.number
        fingerprint = chart.fingerprint()
        key = (fingerprint, int(k), strategy)
        with span("cache") as sp, self._results:
            if number > self._result_number:  # a write since: every result is stale
                if self._result_cache:
                    self._counts["invalidations"].inc()
                self._result_cache.clear()
                self._result_number = number
            # A reader of an older generation neither hits nor stores.
            hit = self._result_cache.get(key) if number == self._result_number else None
            if hit is not None:
                self._result_cache.move_to_end(key)
            if sp is not None:
                sp.attributes["hit"] = hit is not None
        counts = self._counts
        if hit is not None:
            counts["cache_hits"].inc(strategy=strategy)
            return hit

        verifier = None
        if self.config.query_workers >= 2 and self.worker_fallback_reason is None:
            verifier = functools.partial(self._verify_with_workers, generation)
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
            generation=generation,
        )
        counts["queries"].inc(strategy=strategy)
        counts["cache_hits"].inc(0, strategy=strategy)  # shown at 0 beside queries
        counts["total_seconds"].inc(result.seconds, strategy=strategy)
        counts["total_candidates"].inc(result.candidates, strategy=strategy)
        with self._results:
            if number == self._result_number and self.config.result_cache_size > 0:
                self._result_cache[key] = result
                while len(self._result_cache) > self.config.result_cache_size:
                    self._result_cache.popitem(last=False)
        return result

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @_serialised
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
    ) -> "SearchService":
        """Restore a service from a snapshot without re-encoding any table.

        The snapshot's LSH configuration wins over ``config.lsh_config`` (the
        lineage was saved under it; the codes are rehashed with it);
        everything else of ``config`` applies.
        Under ``ServingConfig(mmap_index=True)`` the base is memory-mapped
        (zero-copy views), reported by :attr:`mmap_active`.
        """
        service = cls(model, config=config)
        mmap = service.config.mmap_index
        service.processor = load_processor(model, path, scorer=service.scorer, mmap=mmap)
        service.mmap_active = mmap
        return service
