"""Multi-process sharded table encoding for index builds.

Table encodings are embarrassingly parallel: each table's dataset-encoder
output depends only on the model weights and that table's columns.  This
module fans chunks of tables out across worker processes, each running the
same chunked encode as the single-process path
(:meth:`repro.fcm.scorer.FCMScorer.index_repository`), and merges the
returned :class:`~repro.fcm.scorer.EncodedTable` payloads back into the
caller's scorer cache.

Workers are initialised once per process with the model configuration and a
``state_dict`` snapshot, so the (comparatively large) weights cross the
process boundary a single time rather than once per task.  Any failure to
spin up or drive the pool — unpicklable platform quirks, a missing ``fork``
start method, a task timeout — degrades gracefully to the in-process encode
and is reported on the returned :class:`ShardBuildReport` instead of raised.

Precision: the parent model pins its resolved dtype onto ``FCMConfig.dtype``
at construction, and that config is what crosses the process boundary — so
workers rehydrate under the parent's precision regardless of their own
``REPRO_DTYPE`` environment or policy state, and the merged
:class:`~repro.fcm.scorer.EncodedTable` payloads carry the same dtype the
single-process build would have produced.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.table import Table
from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.scorer import EncodedTable, FCMScorer
from ..obs import get_logger

_log = get_logger("repro.serving.sharding")

#: Per-process scorer built by :func:`_init_worker`; lives for the pool's
#: lifetime so repeated tasks on one worker reuse the reconstructed model.
_WORKER_SCORER: Optional[FCMScorer] = None


def build_worker_scorer(config: FCMConfig, state: Dict[str, np.ndarray]) -> FCMScorer:
    """Rehydrate a ready-to-serve scorer from ``(config, state_dict)``.

    The one-time worker-process initialisation shared by the sharded-build
    pool (here) and the persistent query-worker pool
    (:mod:`repro.serving.workers`): reconstruct the model under the parent's
    pinned precision (``config.dtype``), load the weight snapshot, switch to
    eval mode and wrap it in a fresh :class:`~repro.fcm.scorer.FCMScorer`.
    """
    model = FCMModel(config)
    model.load_state_dict(state)
    model.eval()
    return FCMScorer(model)


def _init_worker(config: FCMConfig, state: Dict[str, np.ndarray]) -> None:
    global _WORKER_SCORER
    _WORKER_SCORER = build_worker_scorer(config, state)
    # A shard worker already owns a core: encoding its chunks on helper
    # threads too would put two threads on every core.
    _WORKER_SCORER._encode_threads = 1


def _encode_shard(tables: List[Table]) -> List[EncodedTable]:
    if _WORKER_SCORER is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("shard worker used before initialisation")
    _WORKER_SCORER.index_repository(tables)
    return [_WORKER_SCORER.encoded_table(table.table_id) for table in tables]


@dataclass
class ShardBuildReport:
    """How a sharded encode actually ran (for stats and benchmarks)."""

    num_workers: int
    shards: List[List[str]] = field(default_factory=list)  # table ids per shard
    seconds: float = 0.0
    fallback_reason: Optional[str] = None

    @property
    def used_processes(self) -> bool:
        return self.num_workers > 1 and self.fallback_reason is None


def _encode_in_process(
    model: FCMModel, tables: Sequence[Table]
) -> List[EncodedTable]:
    scorer = FCMScorer(model)
    scorer.index_repository(tables)
    return [scorer.encoded_table(table.table_id) for table in tables]


def chunk_evenly(items: Sequence, num_chunks: int) -> List[list]:
    """Split a sequence into contiguous, near-equal chunks (no empties).

    The one partitioning rule of the serving layer: build shards
    (:func:`shard_tables`) and query-verification shards
    (:func:`repro.serving.workers.split_shards`) both use it, so the two
    fan-outs can never drift apart.
    """
    num_chunks = max(1, min(int(num_chunks), len(items)))
    bounds = np.linspace(0, len(items), num_chunks + 1).astype(int)
    return [
        list(items[start:end])
        for start, end in zip(bounds[:-1], bounds[1:])
        if end > start
    ]


def shard_tables(tables: Sequence[Table], num_shards: int) -> List[List[Table]]:
    """Split ``tables`` into ``num_shards`` contiguous, near-equal chunks."""
    return chunk_evenly(tables, num_shards)


def encode_tables_sharded(
    model: FCMModel,
    tables: Sequence[Table],
    num_workers: int,
    timeout: Optional[float] = None,
) -> Tuple[List[EncodedTable], ShardBuildReport]:
    """Encode ``tables`` across ``num_workers`` processes.

    Returns the encodings in input order plus a :class:`ShardBuildReport`.
    The encodings are bitwise the single-process cached encodings (each
    worker runs the identical chunked batched encode, serially, and a table's
    encoding does not depend on its chunk-mates); ``tests/test_serving.py``
    pins the parity.  An in-process build already encodes on every core BLAS
    leaves free (:meth:`FCMScorer.index_repository`), which beats this pool
    on a 2-CPU host (``benchmarks/README.md``, "Threads against processes").

    Parameters
    ----------
    num_workers:
        ``<= 1`` encodes in-process (no pool).
    timeout:
        Optional per-build wall-clock guard; on expiry the pool is abandoned
        and the remaining shards are encoded in-process.
    """
    tables = list(tables)
    num_workers = max(1, int(num_workers))
    start = time.perf_counter()

    if num_workers <= 1 or len(tables) < 2:
        encoded = _encode_in_process(model, tables)
        report = ShardBuildReport(
            num_workers=1,
            shards=[[t.table_id for t in tables]] if tables else [],
            seconds=time.perf_counter() - start,
        )
        return encoded, report

    shards = shard_tables(tables, num_workers)
    report = ShardBuildReport(
        num_workers=len(shards),
        shards=[[t.table_id for t in shard] for shard in shards],
    )
    pool: Optional[ProcessPoolExecutor] = None
    try:
        context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(
            max_workers=len(shards),
            mp_context=context,
            initializer=_init_worker,
            initargs=(model.config, model.state_dict()),
        )
        futures = [pool.submit(_encode_shard, shard) for shard in shards]
        deadline = None if timeout is None else start + timeout
        shard_results: List[List[EncodedTable]] = []
        for future in futures:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            shard_results.append(future.result(timeout=remaining))
        pool.shutdown(wait=True)
        encoded = [enc for shard in shard_results for enc in shard]
    except Exception as exc:  # degrade, never fail the build
        if pool is not None:
            # Don't block on stuck workers: abandon outstanding tasks.
            pool.shutdown(wait=False, cancel_futures=True)
        report.fallback_reason = f"{type(exc).__name__}: {exc}"
        _log.info(
            "sharded_build_fallback",
            reason=report.fallback_reason,
            tables=len(tables),
            shards=len(shards),
        )
        encoded = _encode_in_process(model, tables)
    report.seconds = time.perf_counter() - start
    _log.info(
        "sharded_build_finished",
        tables=len(tables),
        workers=report.num_workers,
        seconds=report.seconds,
        used_processes=report.used_processes,
    )
    return encoded, report
