"""Persistent process-level query-verification workers.

In-process candidate verification runs on the parent's single core.  This
module gives :class:`SearchService` *process*-level parallelism for the
verification stage (``ServingConfig(query_workers=N)``, one candidate shard
per worker) without paying a process-spawn (or model-rebuild) cost per query:

* :class:`QueryWorkerPool` keeps ``num_workers`` long-lived worker processes
  alive for the service's lifetime.  Each worker rehydrates the model
  **once** from ``(config, state_dict)`` — the same initialisation the
  sharded-build pool uses (:func:`repro.serving.sharding.build_worker_scorer`)
  — so the weights cross the process boundary a single time.
* The parent *syncs* cached :class:`~repro.fcm.scorer.EncodedTable` payloads
  (and evictions) to every worker incrementally, so after the initial
  broadcast an ``add_tables`` of m tables ships only those m encodings.
* Per query, the parent prepares the chart once
  (:meth:`FCMScorer.prepare_query`) and scatters ``(chart_input, shard)``
  tasks; each worker scores its shard with
  :meth:`FCMScorer.score_encoded_batch` against its own synced cache.
  Identical inputs, weights and ops mean the gathered scores equal the
  in-process path to floating-point accuracy (``tests/test_serving.py``
  pins ≤1e-8 under float64).

The pool never takes the service down: any failure — spawn refusal, a dead
worker, a reply timeout — raises :class:`WorkerPoolError` to the caller,
and :class:`SearchService` responds by closing the pool and serving the
query in-process (the fallback is sticky until
:meth:`SearchService.reset_query_pool`).

Precision: as with sharded builds, the parent's :class:`FCMConfig` pins its
resolved dtype, so workers score under the parent's precision regardless of
their own ``REPRO_DTYPE`` environment.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.preprocessing import ChartInput
from ..fcm.scorer import EncodedTable
from ..obs import current_span, current_trace_id, get_logger, span, start_trace
from .persistence import PathLike, snapshot_encodings
from .sharding import build_worker_scorer, chunk_evenly

_log = get_logger("repro.serving.workers")


class WorkerPoolError(RuntimeError):
    """A query-worker operation failed (caller should fall back in-process)."""


def _worker_main(
    conn,
    config: FCMConfig,
    state: Dict[str, np.ndarray],
    mmap_snapshot: Optional[PathLike] = None,
) -> None:
    """Worker-process loop: rehydrate once, then serve sync/score requests.

    With ``mmap_snapshot`` set, the worker opens that snapshot with
    ``mmap=True`` during initialisation: its cache entries become zero-copy
    read-only views into the memory-mapped sidecar files, so the base
    encodings are never pickled over the pipe and every worker shares the
    same page-cache-resident bytes.  The ``ready`` handshake reports the
    loaded table ids so the parent knows exactly what the workers hold.

    **Tracing**: a ``score`` message carries the parent's trace id (or
    ``None`` when the query is untraced).  Traced shards run under a
    worker-local trace root so the ``shard_score`` stage (and the
    ``encode_chart`` span the scorer opens inside it) is captured, and the
    serialised tree rides back with the scores for the parent to stitch.
    Model rehydration happens once, long before any query — its cost is
    recorded at init and attached as a deferred ``rehydrate`` span to the
    first traced reply, so profiles still show what cold-start cost.
    """
    rehydrate_start = time.perf_counter()
    try:
        scorer = build_worker_scorer(config, state)
        loaded_ids: List[str] = []
        if mmap_snapshot is not None:
            mapped = snapshot_encodings(mmap_snapshot, mmap=True)
            loaded_ids = list(scorer.write(entries=mapped).encoded)
    except BaseException as exc:  # report the failed init, then exit
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        conn.close()
        return
    rehydrate_seconds = time.perf_counter() - rehydrate_start
    rehydrate_reported = False
    conn.send(("ready", loaded_ids))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        kind = message[0]
        try:
            if kind == "stop":
                break
            if kind == "sync":
                _, encoded, evicted = message
                # A shipped id the worker holds has new content: it is replaced.
                scorer.write(drop=[*evicted, *(e.table_id for e in encoded)], entries=encoded)
                reply = ("ok", len(encoded) + len(evicted))
            elif kind == "score":
                _, chart_input, table_ids, trace_id = message
                if trace_id is None:
                    scores = scorer.score_encoded_batch(chart_input, table_ids)
                    reply = ("ok", (scores, None))
                else:
                    with start_trace("worker", trace_id=trace_id) as root:
                        with span("shard_score", tables=len(table_ids)):
                            scores = scorer.score_encoded_batch(
                                chart_input, table_ids
                            )
                    if not rehydrate_reported:
                        root.attach(
                            {
                                "name": "rehydrate",
                                "duration_ms": rehydrate_seconds * 1e3,
                                "attributes": {"deferred": True},
                                "children": [],
                            }
                        )
                        rehydrate_reported = True
                    reply = ("ok", (scores, root.to_dict()))
            else:
                reply = ("error", f"unknown message kind {kind!r}")
        except BaseException as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class WorkerPoolStats:
    """What a pool has done since :meth:`QueryWorkerPool.start` (diagnostics)."""

    num_workers: int = 0
    queries: int = 0
    tables_synced: int = 0
    tables_evicted: int = 0


def split_shards(ids: Sequence[str], num_shards: int) -> List[List[str]]:
    """Split candidate ids into at most ``num_shards`` contiguous shards.

    Edge cases are part of the contract (``tests/test_serving.py`` pins
    them): fewer ids than shards yields one *singleton* shard per id —
    never an empty shard, so nothing useless is ever shipped over a worker
    pipe (:meth:`QueryWorkerPool.score` additionally drops empties defence
    in depth); an empty id list yields no shards at all.  A non-positive
    ``num_shards`` is a caller bug and raises :class:`ValueError` loudly
    instead of silently collapsing the fan-out into one shard.
    """
    if int(num_shards) < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return chunk_evenly(list(ids), num_shards)


class QueryWorkerPool:
    """A fixed set of long-lived processes verifying candidate shards.

    Unlike a task-queue executor, every worker owns a private duplex pipe:
    the parent can *broadcast* cache syncs to all workers and *scatter*
    per-query shards, then gather the replies in order.  Workers are started
    by :meth:`start` (a ``ready`` handshake confirms the model rehydrated)
    and run until :meth:`close` or parent exit (daemon processes).

    All operations raise :class:`WorkerPoolError` on any worker failure or
    timeout; the pool is not usable afterwards and should be closed.

    With ``mmap_snapshot`` (a snapshot path) every worker memory-maps the
    base encodings at start instead of receiving them pickled through
    :meth:`sync` — worker RSS then grows by the page-cache pages the kernel
    charges to the mapping, not by a private copy of the index.  Tables
    added after the snapshot still ship incrementally via :meth:`sync`.
    """

    def __init__(
        self,
        model: FCMModel,
        num_workers: int,
        start_timeout: Optional[float] = 120.0,
        mmap_snapshot: Optional[PathLike] = None,
    ) -> None:
        if num_workers < 2:
            raise ValueError("QueryWorkerPool needs num_workers >= 2")
        self._model = model
        self._num_workers = int(num_workers)
        self._start_timeout = start_timeout
        self._mmap_snapshot = mmap_snapshot
        self._preloaded_ids: List[str] = []
        self._processes: List[multiprocessing.Process] = []
        self._connections: list = []
        self.stats = WorkerPoolStats()
        #: Serialised worker span trees from the most recent traced
        #: :meth:`score` call (diagnostics; also stitched into the ambient
        #: trace automatically).
        self.last_worker_spans: List[Dict] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def started(self) -> bool:
        return bool(self._processes)

    @property
    def alive(self) -> bool:
        return bool(self._processes) and all(p.is_alive() for p in self._processes)

    @property
    def worker_pids(self) -> List[int]:
        """The live workers' process ids (for external RSS measurement)."""
        return [p.pid for p in self._processes if p.pid is not None]

    @property
    def preloaded_table_ids(self) -> List[str]:
        """Table ids every worker loaded from ``mmap_snapshot`` at start.

        Empty for pools started without a snapshot.  The parent uses this as
        the sync baseline: only the diff against it is ever shipped.
        """
        return list(self._preloaded_ids)

    def start(self) -> "QueryWorkerPool":
        """Spawn the workers and wait for every ``ready`` handshake.

        Each worker receives ``(model.config, state_dict)`` once, rebuilds
        the model and acknowledges; a worker that fails to initialise (or to
        answer within ``start_timeout`` seconds) aborts the whole start with
        :class:`WorkerPoolError` after closing whatever came up.
        """
        if self._processes:
            return self
        context = multiprocessing.get_context()
        config, state = self._model.config, self._model.state_dict()
        try:
            for _ in range(self._num_workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, config, state, self._mmap_snapshot),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
            deadline = (
                None
                if self._start_timeout is None
                else time.perf_counter() + self._start_timeout
            )
            loaded: List[List[str]] = []
            for conn in self._connections:
                kind, payload = self._recv(conn, deadline)
                if kind != "ready":
                    raise WorkerPoolError(f"worker failed to initialise: {payload}")
                loaded.append(list(payload or []))
            if any(ids != loaded[0] for ids in loaded[1:]):
                # A segment landed between two workers opening the snapshot;
                # the caches would diverge silently, so refuse the pool and
                # let the serving layer fall back (or retry) instead.
                raise WorkerPoolError(
                    "workers disagree on the snapshot state they mapped"
                )
            self._preloaded_ids = loaded[0] if loaded else []
        except Exception:
            self.close()
            raise
        self.stats = WorkerPoolStats(num_workers=self._num_workers)
        _log.info(
            "worker_pool_started",
            num_workers=self._num_workers,
            preloaded_tables=len(self._preloaded_ids),
            mmap_snapshot=str(self._mmap_snapshot) if self._mmap_snapshot else None,
        )
        return self

    def close(self) -> None:
        """Stop every worker (idempotent; never raises)."""
        if self._processes:
            _log.info(
                "worker_pool_closed",
                num_workers=len(self._processes),
                queries=self.stats.queries,
            )
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for conn in self._connections:
            try:
                conn.close()
            except Exception:
                pass
        for process in self._processes:
            try:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
            except Exception:
                pass
        self._processes = []
        self._connections = []
        self._preloaded_ids = []

    def __enter__(self) -> "QueryWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    @staticmethod
    def _recv(conn, deadline: Optional[float]):
        """One reply off ``conn``, honouring the deadline; normalises errors."""
        remaining = None if deadline is None else deadline - time.perf_counter()
        if remaining is not None and not conn.poll(max(0.0, remaining)):
            raise WorkerPoolError("timed out waiting for a worker reply")
        try:
            message = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerPoolError(f"worker connection lost: {exc}") from exc
        kind, payload = message
        if kind == "error":
            raise WorkerPoolError(f"worker failed: {payload}")
        return kind, payload

    def _require_started(self) -> None:
        if not self._processes:
            raise WorkerPoolError("pool is not running (call start())")

    def _deadline(self, timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.perf_counter() + timeout

    def sync(
        self,
        encoded: Sequence[EncodedTable],
        evicted: Sequence[str] = (),
        timeout: Optional[float] = None,
    ) -> None:
        """Broadcast cache additions/evictions to every worker and wait.

        ``encoded`` payloads are the parent's cached
        :class:`~repro.fcm.scorer.EncodedTable` objects (shipped verbatim, so
        worker-side scores use the exact arrays the parent would); ``evicted``
        ids are dropped from every worker cache.  The call is incremental —
        the serving layer only sends the diff since the last sync.
        """
        self._require_started()
        encoded = list(encoded)
        evicted = list(evicted)
        if not encoded and not evicted:
            return
        deadline = self._deadline(timeout)
        for conn in self._connections:
            conn.send(("sync", encoded, evicted))
        for conn in self._connections:
            self._recv(conn, deadline)
        self.stats.tables_synced += len(encoded)
        self.stats.tables_evicted += len(evicted)
        _log.debug("worker_sync", tables=len(encoded), evicted=len(evicted))

    def score(
        self,
        chart_input: ChartInput,
        shards: Sequence[Sequence[str]],
        timeout: Optional[float] = None,
    ) -> Dict[str, float]:
        """Scatter candidate shards over the workers and gather the scores.

        Shards are assigned round-robin (shard *i* to worker ``i % W``); a
        worker holding several shards pipelines them over its FIFO pipe.
        Returns the merged ``{table_id: score}`` map covering every id in
        every shard.

        When an ambient trace is active (see :mod:`repro.obs.tracing`) the
        trace id rides along with every shard; workers answer with
        ``(scores, span_tree)`` and the trees are stitched under the current
        span (and kept in :attr:`last_worker_spans`).  Untraced queries send
        ``trace_id=None`` and workers skip span bookkeeping entirely.
        """
        self._require_started()
        shards = [list(shard) for shard in shards if shard]
        if not shards:
            return {}
        trace_id = current_trace_id()
        deadline = self._deadline(timeout)
        assigned: List[int] = []
        for index, (shard, conn) in enumerate(
            zip(shards, itertools.cycle(self._connections))
        ):
            conn.send(("score", chart_input, shard, trace_id))
            assigned.append(index % len(self._connections))
        scores: Dict[str, float] = {}
        worker_trees: List[Dict] = []
        for conn_index in assigned:
            _, payload = self._recv(self._connections[conn_index], deadline)
            shard_scores, worker_tree = payload
            scores.update(shard_scores)
            if worker_tree is not None:
                worker_trees.append(worker_tree)
        if worker_trees:
            self.last_worker_spans = worker_trees
            parent = current_span()
            if parent is not None:
                for tree in worker_trees:
                    parent.attach(tree)
        self.stats.queries += 1
        return scores
