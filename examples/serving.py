"""Serving: a long-lived, mutable, persistent chart-query index.

Where ``indexed_search_at_scale.py`` treats the hybrid index as a one-shot
batch build, this example runs it as a *service* (``repro.serving``):

1. train a small FCM and build a :class:`SearchService` over a repository,
   fanning table encoding across worker processes when CPUs allow;
2. serve queries — candidate verification runs on a process-level worker
   pool (``query_workers``) holding the index as it stands, and the second
   hit of the same chart comes from the LRU result cache;
3. mutate the live index: add newly arrived tables, retire old ones —
   no rebuild, results identical to one (the next pooled query starts a
   pool for the new index);
4. snapshot the index to disk, append the post-mutation delta as an
   append-only segment (O(delta) bytes, the base is not rewritten), compact,
   and restart from it without re-encoding a single table.

Run with::

    PYTHONPATH=src python examples/serving.py

``REPRO_SERVING_EPOCHS`` overrides the training budget (CI runs this script
with 1 epoch so the serving path cannot rot).
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from pathlib import Path

from repro.charts import render_chart_for_table
from repro.data import CorpusConfig, filter_line_chart_records, generate_corpus
from repro.fcm import FCMConfig, TrainerConfig, train_fcm
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig


def main() -> None:
    print("== 1. Corpus + a small trained FCM ==")
    records = filter_line_chart_records(
        generate_corpus(CorpusConfig(num_records=50, min_rows=100, max_rows=200, seed=11))
    )
    train_records = records[:24]
    epochs = int(os.environ.get("REPRO_SERVING_EPOCHS", "3"))
    config = FCMConfig()
    model, history, _ = train_fcm(
        train_records,
        config=config,
        trainer_config=TrainerConfig(epochs=epochs, batch_size=8, num_negatives=3),
    )
    print(f"   trained {epochs} epochs, final loss {history.final_loss:.3f}")

    print("== 2. Building the service (sharded encode when CPUs allow) ==")
    initial, arriving = records[:40], records[40:]
    workers = min(4, multiprocessing.cpu_count())
    service = SearchService(
        model,
        ServingConfig(lsh_config=LSHConfig(num_bits=10, hamming_radius=1),
                      query_workers=max(2, workers), worker_timeout=300.0),
    )
    start = time.perf_counter()
    service.build([r.table for r in initial], num_workers=workers)
    report = service.last_shard_report
    mode = (
        f"{report.num_workers} worker processes"
        if report is not None and report.used_processes
        else "in-process"
    )
    print(f"   indexed {service.num_tables} tables in "
          f"{time.perf_counter() - start:.1f}s ({mode})")

    print("== 3. Serving queries (cold, then cached) ==")
    query_record = initial[5]
    chart = render_chart_for_table(
        query_record.table,
        list(query_record.spec.y_columns),
        x_column=query_record.spec.x_column,
        spec=config.chart_spec,
    )
    cold = service.query(chart, k=5)
    warm = service.query(chart, k=5)
    verify_mode = (
        f"worker pool ({service.config.query_workers} processes)"
        if service.stats.worker_queries
        else f"in-process ({service.worker_fallback_reason or 'pool not used'})"
    )
    print(f"   cold {cold.seconds * 1e3:.1f}ms over {cold.candidates} candidates "
          f"via {verify_mode}; warm query served from cache "
          f"(hits={service.stats.per_strategy['hybrid'].cache_hits})")
    print(f"   top-3: {[table_id for table_id, _ in cold.ranking[:3]]}")

    print("== 4. Snapshot the running index ==")
    tmp_dir = tempfile.TemporaryDirectory()
    snapshot = service.save_index(Path(tmp_dir.name) / "index.npz")
    # The base is a metadata archive plus flat, memory-mappable .npy sidecars.
    base_kb = sum(f.stat().st_size for f in Path(tmp_dir.name).iterdir()) / 1024
    print(f"   base snapshot {base_kb:.0f} KiB ({service.num_tables} tables)")

    print("== 5. Mutating the live index ==")
    service.add_tables([r.table for r in arriving])
    retired = [initial[1].table.table_id, initial[2].table.table_id]
    service.remove_tables(retired)
    after = service.query(chart, k=5)
    pool = service.query_pool
    pool_note = (
        f"worker pool restarted on generation {pool.number}"
        if pool is not None
        else "verified in-process"
    )
    print(f"   +{len(arriving)} tables, -{len(retired)} tables -> "
          f"{service.num_tables} live, result cache invalidated "
          f"({after.candidates} candidates now); {pool_note}")

    print("== 6. Append-only snapshot delta + restart without re-encoding ==")
    with tmp_dir:
        segment = service.save_index(snapshot, append=True)
        seg_kb = Path(segment).stat().st_size / 1024
        print(f"   delta segment {Path(segment).name}: {seg_kb:.1f} KiB "
              f"(vs {base_kb:.0f} KiB base — the base was not rewritten)")
        compacted = SearchService.compact_snapshot(snapshot)
        start = time.perf_counter()
        restarted = SearchService.load_index(model, compacted)
        load_seconds = time.perf_counter() - start
        again = restarted.query(chart, k=5)
        assert [t for t, _ in again.ranking] == [t for t, _ in after.ranking], (
            "restarted service must rank identically"
        )
        print(f"   compacted + restored {restarted.num_tables} tables "
              f"in {load_seconds * 1e3:.0f}ms; rankings identical")

    service.close()  # release the query worker pool

    print("== 7. Service statistics ==")
    for strategy, stats in service.stats.summary().items():
        print(f"   {strategy:<8s} queries={stats['queries']} "
              f"cache_hits={stats['cache_hits']} "
              f"mean={stats['mean_seconds'] * 1e3:.1f}ms "
              f"candidates~{stats['mean_candidates']:.0f}")
    print(f"   worker-pool queries={service.stats.worker_queries} "
          f"fallbacks={service.stats.worker_fallbacks}")


if __name__ == "__main__":
    main()
