"""Smoke-scale integration tests of every experiment runner.

These validate the exact code paths the ``benchmarks/`` targets execute, at a
size that keeps the whole module to roughly a minute of CPU.  Heavy shared
state (the bench_data and the trained methods) is built once per module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    build_benchmark,
    run_fig5,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
    smoke_scale,
    train_baseline_methods,
    train_fcm_methods,
)
from repro.bench.experiments import LINE_BUCKETS, WINDOW_BUCKETS
from repro.index import LSHConfig
from repro.relevance import clear_relevance_cache, relevance_cache_info

# Trains several models per session: the bulk of the unit suite's wall time.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def scale():
    return smoke_scale()


@pytest.fixture(scope="module")
def bench_data(scale):
    return build_benchmark(scale.benchmark)


@pytest.fixture(scope="module")
def fcm_methods(bench_data, scale):
    return train_fcm_methods(bench_data, scale, variants=("FCM", "FCM-HCMAN", "FCM-DA"))


@pytest.fixture(scope="module")
def baseline_methods(bench_data, scale):
    return train_baseline_methods(bench_data, scale)


def test_table1_statistics(bench_data):
    stats = run_table1(bench_data)
    assert set(stats) == {"queries", "repository"}
    assert stats["queries"]["total"] == len(bench_data.queries)


def test_table2_overall_effectiveness(bench_data, fcm_methods, baseline_methods):
    methods = {**baseline_methods, "FCM": fcm_methods["FCM"]}
    result = run_table2(methods, bench_data)
    assert set(result) == {"overall", "with_da", "without_da"}
    for section in result.values():
        assert set(section) == set(methods)
        for summary in section.values():
            assert 0.0 <= summary["prec"] <= 1.0
            assert 0.0 <= summary["ndcg"] <= 1.0


def test_table3_multiline_buckets(bench_data, fcm_methods):
    result = run_table3({"FCM": fcm_methods["FCM"]}, bench_data)
    assert set(result) == set(LINE_BUCKETS)
    for bucket in LINE_BUCKETS:
        assert "FCM" in result[bucket]


def test_table4_da_breakdown(bench_data, fcm_methods):
    result = run_table4(fcm_methods["FCM"], bench_data)
    assert set(result) == {"min", "max", "sum", "avg"}
    for row in result.values():
        assert set(row) == set(WINDOW_BUCKETS)
        for value in row.values():
            assert np.isnan(value) or 0.0 <= value <= 1.0


def test_table5_hcman_ablation(bench_data, fcm_methods):
    result = run_table5(fcm_methods["FCM"], fcm_methods["FCM-HCMAN"], bench_data)
    assert "overall" in result
    assert set(result["overall"]) == {"FCM", "FCM-HCMAN"}


def test_table6_da_ablation(bench_data, fcm_methods):
    result = run_table6(fcm_methods["FCM"], fcm_methods["FCM-DA"], bench_data)
    assert set(result) == {"overall", "with_da", "without_da"}
    assert set(result["with_da"]) == {"FCM", "FCM-DA"}


def test_table7_segment_size_grid(bench_data, scale):
    grid = run_table7(bench_data, scale, p1_values=(60,), p2_values=(32,))
    assert set(grid) == {(60, 32)}
    assert 0.0 <= grid[(60, 32)] <= 1.0


def test_table8_indexing(bench_data, fcm_methods):
    result = run_table8(
        fcm_methods["FCM"],
        bench_data,
        lsh_config=LSHConfig(num_bits=6, hamming_radius=2),
        queries=bench_data.queries[:3],
    )
    for strategy in ("none", "interval", "lsh", "hybrid"):
        assert 0.0 <= result[strategy]["prec"] <= 1.0
        assert result[strategy]["query_seconds"] >= 0.0
    # Structural guarantees: the interval tree cannot lose candidates relative
    # to a linear scan, so its effectiveness matches "none" exactly.
    assert result["interval"]["prec"] == pytest.approx(result["none"]["prec"])
    assert result["interval"]["ndcg"] == pytest.approx(result["none"]["ndcg"])
    # Pruned strategies inspect at most as many candidates as the linear scan.
    assert result["hybrid"]["mean_candidates"] <= result["none"]["mean_candidates"]
    assert result["lsh"]["mean_candidates"] <= result["none"]["mean_candidates"]


def test_table9_negative_counts(bench_data, scale):
    result = run_table9(bench_data, scale, negative_counts=(1, 2))
    assert set(result) == {1, 2}
    for summary in result.values():
        assert 0.0 <= summary["prec"] <= 1.0


def test_fig5_negative_sampling_curves(bench_data, scale):
    clear_relevance_cache()
    curves = run_fig5(bench_data, scale, strategies=("semi-hard", "random"), epochs=1)
    assert set(curves) == {"semi-hard", "random"}
    for series in curves.values():
        assert len(series) == 1
        assert 0.0 <= series[0] <= 1.0
    # No matrix is handed around: the first ranking strategy computed the
    # pairs its batches read, the next one finds every one of them memoised.
    computed = relevance_cache_info().misses
    assert computed > 0
    run_fig5(bench_data, scale, strategies=("hard",), epochs=1)
    assert relevance_cache_info().misses == computed
