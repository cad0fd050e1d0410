"""Process-level query verification over one index generation.

:class:`QueryWorkerPool` gives :class:`SearchService` process-level
parallelism for the verification stage (``ServingConfig(query_workers=N)``,
one contiguous candidate shard per worker).  A pool is a snapshot of one
:class:`~repro.fcm.scorer.IndexGeneration`:

* each worker rehydrates the model once from ``(config, state_dict)`` — the
  initialisation the sharded build uses
  (:func:`repro.serving.sharding.build_worker_scorer`) — and registers that
  generation's scorable entries once, at start.  Under the ``fork`` start
  method the entries are inherited rather than pickled, so the arrays of a
  memory-mapped index stay pages shared with the parent;
* the pool never changes: when the index moves, :class:`SearchService`
  closes it and starts one for the generation its query reads;
* per query the parent prepares the chart once
  (:meth:`FCMScorer.prepare_query`) and each worker scores its shard
  (:meth:`FCMScorer._score_ids`), answering an array; the gathered array is
  aligned with the candidates.  Identical inputs, weights and ops mean the
  scores equal the in-process path to floating-point accuracy
  (``tests/test_serving.py`` pins ≤1e-8 under float64).

The pool never takes the service down: any failure — a refused start, a
dead worker, a reply timeout — raises :class:`WorkerPoolError` to the
caller, and :class:`SearchService` responds by closing the pool and serving
the query in-process (the fallback is sticky until
:meth:`SearchService.reset_query_pool`).

Precision: as with sharded builds, the parent's :class:`FCMConfig` pins its
resolved dtype, so workers score under the parent's precision regardless of
their own ``REPRO_DTYPE`` environment.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.preprocessing import ChartInput
from ..fcm.scorer import EncodedTable, IndexGeneration
from ..obs import get_logger
from .sharding import build_worker_scorer, chunk_evenly

_log = get_logger("repro.serving.workers")


class WorkerPoolError(RuntimeError):
    """A query-worker operation failed (caller should fall back in-process)."""


def _worker_main(
    conn, config: FCMConfig, state: Dict[str, np.ndarray], entries: List[EncodedTable]
) -> None:
    """Worker-process loop: rehydrate and register ``entries`` once, then
    answer each ``("score", chart_input, ids)`` with the ids' scores."""
    try:
        scorer = build_worker_scorer(config, state)
        scorer.write(entries=entries)
        del entries
        conn.send(("ready", None))
    except BaseException as exc:  # report the failed init, then exit
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if message[0] == "stop":
            break
        try:
            _, chart_input, table_ids = message
            reply = ("ok", scorer._score_ids(chart_input, table_ids))
        except BaseException as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class QueryWorkerPool:
    """A fixed set of processes verifying candidate shards of one generation.

    Every worker owns a private duplex pipe: the parent scatters one shard
    per worker and gathers the replies in order.  Workers are started by
    :meth:`start` (a ``ready`` handshake confirms the model rehydrated and
    the entries are registered) and run until :meth:`close` or parent exit
    (daemon processes).

    All operations raise :class:`WorkerPoolError` on any worker failure or
    timeout; the pool is not usable afterwards and should be closed.
    """

    def __init__(
        self,
        model: FCMModel,
        num_workers: int,
        start_timeout: Optional[float] = 120.0,
    ) -> None:
        if num_workers < 2:
            raise ValueError("QueryWorkerPool needs num_workers >= 2")
        self._model = model
        self._num_workers = int(num_workers)
        self._start_timeout = start_timeout
        #: The number of the generation the workers hold (``None`` until
        #: :meth:`start`).
        self.number: Optional[int] = None
        self._processes: List[multiprocessing.Process] = []
        self._connections: list = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def worker_pids(self) -> List[int]:
        """The live workers' process ids."""
        return [p.pid for p in self._processes if p.pid is not None]

    def start(self, generation: IndexGeneration) -> "QueryWorkerPool":
        """Start the workers on ``generation`` and wait for every ``ready``
        handshake.

        Each worker receives ``(model.config, state_dict)`` and the
        generation's scorable entries once, rebuilds the model, registers
        the entries and acknowledges; a worker that fails to initialise (or
        to answer within ``start_timeout`` seconds) aborts the whole start
        with :class:`WorkerPoolError` after closing whatever came up.
        """
        entries = [generation.entry(table_id) for table_id in generation.scorable[1]]
        context = multiprocessing.get_context()
        config, state = self._model.config, self._model.state_dict()
        try:
            for _ in range(self._num_workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, config, state, entries),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
            deadline = self._deadline(self._start_timeout)
            for conn in self._connections:
                self._recv(conn, deadline)
        except Exception:
            self.close()
            raise
        self.number = generation.number
        _log.info(
            "worker_pool_started",
            num_workers=self._num_workers,
            tables=len(entries),
            generation=self.number,
        )
        return self

    def close(self) -> None:
        """Stop every worker and reap it (idempotent; never raises)."""
        if self._processes:
            _log.info("worker_pool_closed", num_workers=len(self._processes))
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
                    process.join(timeout=5.0)
            except Exception:
                pass
        self._processes = []
        self._connections = []

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    @staticmethod
    def _recv(conn, deadline: Optional[float]):
        """One reply's payload off ``conn``, honouring the deadline;
        normalises errors."""
        remaining = None if deadline is None else deadline - time.perf_counter()
        if remaining is not None and not conn.poll(max(0.0, remaining)):
            raise WorkerPoolError("timed out waiting for a worker reply")
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerPoolError(f"worker connection lost: {exc}") from exc
        if kind == "error":
            raise WorkerPoolError(f"worker failed: {payload}")
        return payload

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.perf_counter() + timeout

    def score(
        self,
        chart_input: ChartInput,
        ordered_ids: Sequence[str],
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """The scores of ``ordered_ids`` as a float64 array aligned with them.

        The ids are split into at most one contiguous, non-empty shard per
        worker (:func:`~repro.serving.sharding.chunk_evenly`); shard *i*
        goes to worker *i*, and the replies are concatenated in shard order.
        """
        if not self._processes:
            raise WorkerPoolError("pool is not running (call start())")
        shards = chunk_evenly(ordered_ids, self._num_workers)
        deadline = self._deadline(timeout)
        for shard, conn in zip(shards, self._connections):
            conn.send(("score", chart_input, shard))
        parts = [self._recv(conn, deadline) for _, conn in zip(shards, self._connections)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
