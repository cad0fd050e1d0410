"""Single-dtype probe for the paper-scale feasibility benchmark.

Run as a subprocess (one per precision) by ``test_paper_scale.py`` so each
dtype gets its own honest peak-RSS measurement::

    REPRO_DTYPE=float32 python benchmarks/paper_scale_probe.py --scale smoke

Prints one JSON object to stdout: per-stage timings and byte counts for the
quickstart-dims configuration (training steps/sec) and the paper-scale
configuration (``paper_scale_config()``: 768-dim, 12 layers — construct →
index → query → one training step), plus the process peak RSS.  Stages are
attempted in order and failures are recorded, not raised — the point is to
report *how far* the paper-scale configuration gets on this machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.charts import render_chart_for_table  # noqa: E402
from repro.data import CorpusConfig, filter_line_chart_records, generate_corpus  # noqa: E402
from repro.fcm import (  # noqa: E402
    FCMConfig,
    FCMModel,
    FCMScorer,
    FCMTrainer,
    TrainerConfig,
    build_training_data,
    paper_scale_config,
    relevance_matrix,
)
from repro.nn import default_dtype  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _encoded_cache_bytes(scorer: FCMScorer) -> int:
    total = 0
    for table_id in scorer.indexed_table_ids:
        encoded = scorer.encoded_table(table_id)
        total += encoded.representations.nbytes + encoded.column_embeddings.nbytes
    return total


def _quickstart_stats(records) -> dict:
    """Training throughput at the quickstart dims (the default FCMConfig)."""
    config = FCMConfig()
    data = build_training_data(records, config, aggregated_fraction=0.5, seed=0)
    # Warm the relevance memo: the ground-truth DTWs stay out of the timing.
    relevance_matrix(data.examples, data.tables, max_points=24)
    model = FCMModel(config)
    trainer = FCMTrainer(
        model,
        TrainerConfig(epochs=1, batch_size=4, num_negatives=2, relevance_max_points=24),
    )
    start = time.perf_counter()
    trainer.train(data)
    seconds = time.perf_counter() - start
    num_batches = -(-len(data.examples) // 4)
    return {
        "embed_dim": config.embed_dim,
        "num_layers": config.num_layers,
        "param_bytes": model.parameter_nbytes(),
        "num_examples": len(data.examples),
        "epoch_seconds": seconds,
        "steps_per_sec": num_batches / seconds if seconds > 0 else None,
    }


def _paper_scale_stats(records, num_index_tables: int) -> dict:
    """How far the 768-dim, 12-layer configuration gets, stage by stage."""
    stats: dict = {"stages": {}}

    def stage(name, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except MemoryError:
            stats["stages"][name] = {"status": "out-of-memory"}
            return None
        except Exception as exc:  # record, don't crash the probe
            stats["stages"][name] = {
                "status": f"failed: {type(exc).__name__}: {exc}"
            }
            return None
        stats["stages"][name] = {
            "status": "ok",
            "seconds": time.perf_counter() - start,
        }
        return result

    config = paper_scale_config()
    stats["embed_dim"] = config.embed_dim
    stats["num_layers"] = config.num_layers

    model = stage("construct", lambda: FCMModel(config))
    if model is None:
        return stats
    stats["num_parameters"] = model.num_parameters()
    stats["param_bytes"] = model.parameter_nbytes()

    scorer = FCMScorer(model)
    tables = [record.table for record in records[:num_index_tables]]

    def build_index():
        scorer.index_repository(tables)
        return scorer

    if stage("index", build_index) is not None:
        stats["num_indexed_tables"] = len(scorer.indexed_table_ids)
        stats["encoded_cache_bytes"] = _encoded_cache_bytes(scorer)
        stats["stages"]["index"]["seconds_per_table"] = (
            stats["stages"]["index"]["seconds"] / max(len(tables), 1)
        )

        record = records[0]
        chart = render_chart_for_table(
            record.table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            spec=config.chart_spec,
        )
        stage("query", lambda: scorer.score_chart_batch(chart))

    def one_training_step():
        data = build_training_data(records[:2], config, aggregated_fraction=0.0, seed=0)
        trainer = FCMTrainer(
            model,
            TrainerConfig(epochs=1, batch_size=2, num_negatives=1, relevance_max_points=16),
        )
        return trainer.train(data)

    if stage("train_step", one_training_step) is not None:
        stats["steps_per_sec_train"] = 1.0 / stats["stages"]["train_step"]["seconds"]
    return stats


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="default", choices=("default", "smoke"))
    args = parser.parse_args()
    smoke = args.scale == "smoke"

    records = filter_line_chart_records(
        generate_corpus(
            CorpusConfig(
                num_records=6 if smoke else 10, min_rows=60, max_rows=120, seed=11
            )
        )
    )
    report = {
        "dtype": np.dtype(default_dtype()).name,
        "scale": args.scale,
        "quickstart": _quickstart_stats(records[: 4 if smoke else 8]),
        "paper_scale": _paper_scale_stats(records, 2 if smoke else 4),
    }
    report["peak_rss_mb"] = _peak_rss_mb()
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
