"""Boot a self-contained demo server: ``python -m repro.serving.http``.

Builds a :class:`~repro.serving.service.SearchService` over a synthetic
corpus (deterministic per ``--seed``, so a load generator pointed at the
same seed can reconstruct the exact tables and charts client-side), wraps
it in a :class:`~repro.serving.http.server.ChartSearchServer` and serves
until interrupted — SIGINT/SIGTERM trigger the graceful drain.

The model is **untrained by default**: every serving-layer property
(ranking determinism, admission control, drain, snapshots) is
weight-independent, and skipping training makes the boot fast enough for a
CI smoke job.  Pass ``--epochs N`` for a trained model when ranking
*quality* matters.

Usage::

    PYTHONPATH=src python -m repro.serving.http --port 8080 --tables 40
    curl -s localhost:8080/healthz
    curl -s localhost:8080/metrics | python -m json.tool
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import List, Optional, Sequence, Tuple

from ...data import CorpusConfig, filter_line_chart_records, generate_corpus
from ...fcm import FCMConfig, FCMModel
from ...index import LSHConfig
from ..service import SearchService, ServingConfig
from .protocol import chart_payload_from_series
from .server import ChartSearchServer, HTTPServingConfig


def demo_records(num_tables: int, seed: int) -> List:
    """The deterministic corpus records behind a demo server.

    Exposed so clients of a ``--tables N --seed S`` server (tests, the
    load generator) can rebuild the same tables and derive query charts
    without any out-of-band data exchange.
    """
    return filter_line_chart_records(
        generate_corpus(
            CorpusConfig(
                num_records=num_tables, min_rows=80, max_rows=160, seed=seed
            )
        )
    )


def demo_query_payloads(records: Sequence, limit: Optional[int] = None) -> List[dict]:
    """JSON ``/query`` chart payloads for (a slice of) the demo records."""
    payloads = []
    for record in records[: limit if limit is not None else len(records)]:
        data = record.table.to_underlying_data(
            list(record.spec.y_columns), x_column=record.spec.x_column
        )
        payloads.append(chart_payload_from_series(data.series))
    return payloads


def build_demo_service(
    num_tables: int = 40,
    seed: int = 7,
    query_workers: int = 0,
    epochs: int = 0,
    tracing: bool = False,
) -> Tuple[SearchService, List]:
    """An indexed :class:`SearchService` over the demo corpus.

    Returns ``(service, records)`` so the caller can also derive query
    charts (the records carry the chart specs the corpus generator chose).
    """
    records = demo_records(num_tables, seed)
    config = FCMConfig()
    if epochs > 0:
        from ...fcm import TrainerConfig, train_fcm

        model, _, _ = train_fcm(
            records[: max(8, len(records) // 2)],
            config=config,
            trainer_config=TrainerConfig(epochs=epochs, batch_size=8),
        )
    else:
        model = FCMModel(config)
    service = SearchService(
        model,
        ServingConfig(
            lsh_config=LSHConfig(num_bits=10, hamming_radius=1),
            query_workers=query_workers,
            tracing=tracing,
        ),
    )
    service.build([record.table for record in records])
    return service, records


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serve a demo chart-search index over HTTP"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--tables", type=int, default=40, help="corpus size to index"
    )
    parser.add_argument("--seed", type=int, default=7, help="corpus seed")
    parser.add_argument(
        "--epochs",
        type=int,
        default=0,
        help="FCM training epochs (0 = untrained; serving paths are "
        "weight-independent)",
    )
    parser.add_argument(
        "--query-workers",
        type=int,
        default=0,
        help="ServingConfig.query_workers for the wrapped service",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="admission bound before 429s",
    )
    parser.add_argument(
        "--snapshot-path",
        default=None,
        help="default target of POST /snapshot",
    )
    parser.add_argument(
        "--tracing",
        action="store_true",
        help="ServingConfig.tracing: trace every query end-to-end (span trees; "
        "see REPRO_SLOW_QUERY_MS and the per-request debug.trace flag)",
    )
    args = parser.parse_args(argv)

    print(f"building index over {args.tables} synthetic tables (seed {args.seed})...")
    service, records = build_demo_service(
        num_tables=args.tables,
        seed=args.seed,
        query_workers=args.query_workers,
        epochs=args.epochs,
        tracing=args.tracing,
    )
    server = ChartSearchServer(
        service,
        HTTPServingConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            snapshot_path=args.snapshot_path,
        ),
    ).start()
    print(f"serving {service.num_tables} tables at {server.url}")
    print("endpoints: POST /query /tables /snapshot, DELETE /tables/<id>, "
          "GET /tables /healthz /metrics")

    stop = threading.Event()

    def _stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    stop.wait()
    print("draining...")
    server.close()
    print("stopped")
    return 0
