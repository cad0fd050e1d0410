"""Serving-layer throughput: adds, warm queries, sharded builds, workers, snapshots.

Six costs of running the hybrid index as a *service* rather than the
paper's one-shot batch build (Table VIII measures only the latter):

* **incremental add vs. full rebuild** — appending a handful of tables to a
  live :class:`~repro.serving.SearchService` against re-indexing the whole
  repository from scratch;
* **cold vs. warm query latency** — the LRU result cache on repeated
  queries;
* **single-process vs. sharded build** — fanning table encoding out across
  worker processes;
* **worker-pool vs. in-process query verification** — routing candidate
  scoring through the process pool
  (``ServingConfig(query_workers=N)``), with a ranking-parity check;
* **append-only snapshot vs. full rewrite** — persisting a 1-table delta as
  a segment against rewriting the whole base (archive + sidecars);
* **tracing overhead on the warm query path** — the cost of the
  observability layer (``repro.obs``) both disabled (every instrumented
  call site still executes one no-op ``span()`` check) and enabled
  (recording a span tree per query), with a ranking-parity check between
  the traced and untraced services.

The multi-process numbers (sharded build, worker pool) only *win* on
multi-core hosts; ``os.cpu_count()`` and a ``single_cpu`` flag are recorded
in the JSON — and a caveat string attached to those sections — so a 1-CPU
container run is never misread as a multi-core result.

Results land in ``BENCH_serving.json`` at the repository root (the serving
perf trajectory) and ``benchmarks/results/serving_throughput.txt``.  An
*untrained* model is used throughout: every measured path is
weight-independent, and skipping training keeps the target minutes-free.

Speed assertions (incremental faster than rebuild, warm faster than cold,
append cheaper than rewrite) are skipped under ``REPRO_SKIP_PERF_TESTS=1``;
the numbers are recorded either way.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.charts import render_chart_for_table
from repro.data import CorpusConfig, filter_line_chart_records, generate_corpus
from repro.fcm import FCMConfig, FCMModel
from repro.index import LSHConfig
from repro.obs import span
from repro.serving import SearchService, ServingConfig, snapshot_segments

from provenance import stamp_results

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_serving.json"

#: Wall-clock guard for the query worker pool (falls back in-process).
SHARD_TIMEOUT_SECONDS = 600.0


def _skip_perf_assertions() -> bool:
    return os.environ.get("REPRO_SKIP_PERF_TESTS", "").lower() in ("1", "true", "yes")


def _serving_scale() -> dict:
    if os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke":
        return {"name": "smoke", "num_records": 40, "num_queries": 3, "num_added": 4}
    return {"name": "default", "num_records": 120, "num_queries": 5, "num_added": 6}


def _build_service(model, tables, num_workers=1):
    service = SearchService(
        model,
        ServingConfig(lsh_config=LSHConfig(num_bits=10, hamming_radius=1)),
    )
    service.build(tables, num_workers=num_workers)
    return service


def test_serving_throughput(record_result):
    scale = _serving_scale()
    records = filter_line_chart_records(
        generate_corpus(
            CorpusConfig(
                num_records=scale["num_records"], min_rows=100, max_rows=200, seed=21
            )
        )
    )
    tables = [record.table for record in records]
    # Hold one table out of every build: the snapshot section appends it as
    # a 1-table delta against a base that has never seen it.
    tables, held_out = tables[:-1], tables[-1]
    # The default (32-dim, 2-layer) configuration: large enough that encode
    # time dominates process-pool overhead, so the sharded numbers mean
    # something on multi-core hosts.
    config = FCMConfig()
    model = FCMModel(config)
    charts = [
        render_chart_for_table(
            record.table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            spec=config.chart_spec,
        )
        for record in records[: scale["num_queries"]]
    ]

    # ------------------------------------------------------------------ #
    # 1. Full single-process build over all N tables
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    full_service = _build_service(model, tables)
    full_build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # 2. Incremental add of m tables to a live service of N - m
    # ------------------------------------------------------------------ #
    num_added = scale["num_added"]
    base_tables, added_tables = tables[:-num_added], tables[-num_added:]
    incremental_service = _build_service(FCMModel(config), base_tables)
    start = time.perf_counter()
    incremental_service.add_tables(added_tables)
    incremental_add_seconds = time.perf_counter() - start
    assert sorted(incremental_service.table_ids) == sorted(full_service.table_ids)

    # Parity spot check: the mutated service ranks like the full rebuild.
    probe = charts[0]
    a = incremental_service.query(probe, k=5)
    b = full_service.query(probe, k=5)
    assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
    assert max(abs(x - y) for (_, x), (_, y) in zip(a.ranking, b.ranking)) < 1e-8

    # ------------------------------------------------------------------ #
    # 3. Cold vs. warm query latency (LRU result cache)
    # ------------------------------------------------------------------ #
    cold, warm = [], []
    for chart in charts:
        start = time.perf_counter()
        full_service.query(chart, k=10)
        cold.append(time.perf_counter() - start)
        start = time.perf_counter()
        full_service.query(chart, k=10)
        warm.append(time.perf_counter() - start)
    cold_mean = float(np.mean(cold))
    warm_mean = float(np.mean(warm))

    # ------------------------------------------------------------------ #
    # 4. Sharded multi-process build
    # ------------------------------------------------------------------ #
    num_cpus = multiprocessing.cpu_count()
    single_cpu = (os.cpu_count() or 1) <= 1
    multicore_caveat = (
        "recorded on a 1-CPU host: process-level numbers measure overhead "
        "only, not a parallel speed-up"
    )
    num_workers = max(2, min(4, num_cpus))
    start = time.perf_counter()
    sharded_service = _build_service(FCMModel(config), tables, num_workers=num_workers)
    sharded_build_seconds = time.perf_counter() - start
    report = sharded_service.last_shard_report
    sharded_used_processes = bool(report is not None and report.used_processes)
    c = sharded_service.query(probe, k=5)
    assert [t for t, _ in c.ranking] == [t for t, _ in b.ranking]

    # ------------------------------------------------------------------ #
    # 5. Worker-pool query verification vs. in-process
    # ------------------------------------------------------------------ #
    pooled_service = SearchService(
        FCMModel(config),
        ServingConfig(
            lsh_config=LSHConfig(num_bits=10, hamming_radius=1),
            query_workers=num_workers,
            worker_timeout=SHARD_TIMEOUT_SECONDS,
        ),
    )
    pooled_service.build(tables)
    pooled = []
    for chart in charts:
        start = time.perf_counter()
        pooled_result = pooled_service.query(chart, k=10)
        pooled.append(time.perf_counter() - start)
        # Parity: the pool must rank exactly like the in-process service.
        reference = full_service.query(chart, k=10)
        assert [t for t, _ in pooled_result.ranking] == [
            t for t, _ in reference.ranking
        ]
        assert (
            max(
                abs(x - y)
                for (_, x), (_, y) in zip(pooled_result.ranking, reference.ranking)
            )
            < 1e-8
        )
    pooled_mean = float(np.mean(pooled))
    pool_used = (
        pooled_service.worker_fallback_reason is None
        and pooled_service.stats.worker_queries == len(charts)
    )
    pooled_service.close()

    # ------------------------------------------------------------------ #
    # 6. Append-only snapshot segment vs. full rewrite
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        base_path = Path(tmp) / "bench_index.npz"
        start = time.perf_counter()
        full_service.save_index(base_path)
        full_save_seconds = time.perf_counter() - start

        full_service.add_tables([held_out])  # the 1-table delta
        start = time.perf_counter()
        segment_path = full_service.save_index(base_path, append=True)
        append_seconds = time.perf_counter() - start
        start = time.perf_counter()
        full_service.save_index(Path(tmp) / "bench_rewrite.npz")
        rewrite_seconds = time.perf_counter() - start

        assert snapshot_segments(base_path) == [Path(segment_path)]
        segment_bytes = Path(segment_path).stat().st_size
        # The base is its metadata archive plus the flat .npy sidecars.
        base_bytes = (
            sum(f.stat().st_size for f in Path(tmp).glob("bench_index.*"))
            - segment_bytes
        )

    # ------------------------------------------------------------------ #
    # 7. Tracing overhead on the warm query path
    # ------------------------------------------------------------------ #
    # Two distinct costs of the observability layer on the hot (cache-hit)
    # path.  The *off* cost — what every query pays just because the call
    # sites are instrumented — cannot be measured macroscopically (there is
    # no uninstrumented build to compare against), so it is bounded by
    # microbenchmarking a disabled ``span()`` and scaling by the number of
    # spans a warm traced query actually records.  The *on* cost is the
    # direct off-vs-on warm latency delta, measured interleaved so clock
    # drift hits both sides equally.
    traced_service = SearchService(
        FCMModel(config),
        ServingConfig(
            lsh_config=LSHConfig(num_bits=10, hamming_radius=1), tracing=True
        ),
    )
    traced_service.build(tables)

    tracing_rounds = 30
    for chart in charts:  # prime both result caches
        incremental_service.query(chart, k=10)
        traced_service.query(chart, k=10)
    off_samples, on_samples = [], []
    for _ in range(tracing_rounds):
        for chart in charts:
            start = time.perf_counter()
            off_result = incremental_service.query(chart, k=10)
            off_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            on_result = traced_service.query(chart, k=10)
            on_samples.append(time.perf_counter() - start)
            # Tracing must never change what is served.
            assert [t for t, _ in on_result.ranking] == [
                t for t, _ in off_result.ranking
            ]
            assert (
                max(
                    abs(x - y)
                    for (_, x), (_, y) in zip(on_result.ranking, off_result.ranking)
                )
                < 1e-8
            )
    warm_off_mean = float(np.mean(off_samples))
    warm_on_mean = float(np.mean(on_samples))

    trace_tree = traced_service.last_trace
    assert trace_tree is not None

    def _num_spans(node):
        return 1 + sum(_num_spans(child) for child in node.get("children", ()))

    warm_spans = _num_spans(trace_tree)

    null_span_iters = 50_000
    start = time.perf_counter()
    for _ in range(null_span_iters):
        with span("bench_disabled"):
            pass
    null_span_seconds = (time.perf_counter() - start) / null_span_iters
    tracing_off_overhead = null_span_seconds * warm_spans / warm_off_mean
    tracing_on_overhead = (warm_on_mean - warm_off_mean) / warm_off_mean
    traced_service.close()

    results = {
        "benchmark": "serving_throughput",
        "scale": scale["name"],
        "num_tables": len(tables),
        "num_cpus": num_cpus,
        "os_cpu_count": os.cpu_count(),
        "single_cpu": single_cpu,
        "build": {
            "single_process_seconds": full_build_seconds,
            "sharded_seconds": sharded_build_seconds,
            "sharded_num_workers": num_workers,
            "sharded_used_processes": sharded_used_processes,
            "sharded_speedup": full_build_seconds / sharded_build_seconds,
            "caveat": multicore_caveat if single_cpu else None,
        },
        "incremental": {
            "tables_added": num_added,
            "add_seconds": incremental_add_seconds,
            "full_rebuild_seconds": full_build_seconds,
            "speedup_vs_rebuild": full_build_seconds / incremental_add_seconds,
        },
        "query": {
            "num_queries": len(charts),
            "cold_seconds_mean": cold_mean,
            "warm_seconds_mean": warm_mean,
            "warm_speedup": cold_mean / warm_mean if warm_mean > 0 else float("inf"),
        },
        "worker_pool": {
            "query_workers": num_workers,
            "used_processes": pool_used,
            "fallback_reason": pooled_service.worker_fallback_reason,
            "pooled_cold_seconds_mean": pooled_mean,
            "in_process_cold_seconds_mean": cold_mean,
            "speedup_vs_in_process": cold_mean / pooled_mean if pooled_mean else 0.0,
            "caveat": multicore_caveat if single_cpu else None,
        },
        "snapshot": {
            "num_tables_in_base": len(tables),
            "full_save_seconds": full_save_seconds,
            "append_one_table_seconds": append_seconds,
            "full_rewrite_seconds": rewrite_seconds,
            "append_speedup_vs_rewrite": rewrite_seconds / append_seconds
            if append_seconds
            else float("inf"),
            "base_bytes": base_bytes,
            "segment_bytes": segment_bytes,
        },
        "tracing": {
            "rounds": tracing_rounds,
            "num_queries": len(charts),
            "warm_off_seconds_mean": warm_off_mean,
            "warm_on_seconds_mean": warm_on_mean,
            "on_overhead_fraction": tracing_on_overhead,
            "null_span_seconds": null_span_seconds,
            "spans_per_warm_traced_query": warm_spans,
            "off_overhead_fraction": tracing_off_overhead,
        },
    }

    lines = [
        f"Serving throughput ({scale['name']} scale, {len(tables)} tables, "
        f"{num_cpus} CPU{' — single-CPU host' if single_cpu else ''})",
        f"  full build (1 process):      {full_build_seconds:8.3f}s",
        f"  sharded build ({num_workers} workers):   {sharded_build_seconds:8.3f}s"
        f"  ({results['build']['sharded_speedup']:.2f}x"
        f"{'' if sharded_used_processes else ', in-process fallback'})",
        f"  incremental add ({num_added} tables): {incremental_add_seconds:8.3f}s"
        f"  ({results['incremental']['speedup_vs_rebuild']:.1f}x vs rebuild)",
        f"  query cold / warm:           {cold_mean * 1e3:8.2f}ms / {warm_mean * 1e3:.3f}ms"
        f"  ({results['query']['warm_speedup']:.0f}x)",
        f"  worker-pool query ({num_workers} proc): {pooled_mean * 1e3:8.2f}ms"
        f"  ({'pool' if pool_used else 'in-process fallback'})",
        f"  snapshot append / rewrite:   {append_seconds * 1e3:8.2f}ms / "
        f"{rewrite_seconds * 1e3:.2f}ms"
        f"  ({results['snapshot']['append_speedup_vs_rewrite']:.1f}x, "
        f"segment {segment_bytes / 1024:.0f} KiB vs base {base_bytes / 1024:.0f} KiB)",
        f"  tracing off / on (warm):     {warm_off_mean * 1e6:8.1f}us / "
        f"{warm_on_mean * 1e6:.1f}us"
        f"  (off-cost {tracing_off_overhead * 100:.3f}%, "
        f"{warm_spans} spans/query)",
        f"  -> {BENCH_JSON.name}",
    ]
    if single_cpu:
        lines.insert(1, f"  NOTE: {multicore_caveat}")
    if scale["name"] == "smoke":
        # A smoke run checks the code paths; the recorded run stays as it was.
        print("\n".join(lines))
    else:
        BENCH_JSON.write_text(json.dumps(stamp_results(results), indent=2) + "\n")
        record_result("serving_throughput", "\n".join(lines))

    if not _skip_perf_assertions():
        # Adding m << N tables must beat re-encoding all N from scratch.
        assert incremental_add_seconds < full_build_seconds, results["incremental"]
        # A cache hit must beat re-verifying candidates with the matcher.
        assert warm_mean < cold_mean, results["query"]
        # A 1-table delta must beat rewriting the whole archive.
        assert append_seconds < rewrite_seconds, results["snapshot"]
        # Disabled instrumentation must be invisible on the hot path.
        assert tracing_off_overhead <= 0.05, results["tracing"]
        if num_cpus > 1 and sharded_used_processes:
            # Only assert a win where one is physically possible.
            assert sharded_build_seconds < full_build_seconds, results["build"]
        if num_cpus > 1 and pool_used:
            assert pooled_mean < cold_mean, results["worker_pool"]
