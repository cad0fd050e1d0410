"""Tests and properties for DTW, bipartite matching and Rel(D, T)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Column, Table
from repro.fcm import ground_truth_relevance
from repro.relevance import (
    RelevanceComputer,
    clear_relevance_cache,
    relevance_cache_info,
    set_relevance_cache_enabled,
    dtw_distance,
    dtw_distance_banded,
    dtw_path,
    low_level_relevance,
    max_weight_matching,
    max_weight_matching_networkx,
    znormalize,
)

def dtw_distance_reference(a: np.ndarray, b: np.ndarray, normalize: bool = True) -> float:
    """Plain O(n·m) per-cell DTW loop: the ground truth the anti-diagonal
    sweep of ``dtw_distance`` is tested against, bitwise."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if normalize:
        a, b = znormalize(a), znormalize(b)
    n, m = a.shape[0], b.shape[0]
    # cost[i, j] = |a[i-1] - b[j-1]| accumulated along the optimal path.
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        current = np.full(m + 1, np.inf)
        diff = np.abs(a[i - 1] - b)
        for j in range(1, m + 1):
            best = min(prev[j], prev[j - 1], current[j - 1])
            current[j] = diff[j - 1] + best
        prev = current
    return float(prev[m])


series_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=40
)


class TestDTW:
    def test_identical_series_distance_zero(self):
        a = np.sin(np.linspace(0, 6, 50))
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_known_small_case(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 2.0])
        # Without normalisation: optimal alignment pairs (0,0), (1,1), (2,1) -> |1-2|=1
        assert dtw_distance(a, b, normalize=False) == pytest.approx(1.0)

    def test_shift_invariance_with_normalization(self):
        a = np.sin(np.linspace(0, 6, 40))
        b = a + 100.0
        assert dtw_distance(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            dtw_distance(np.array([np.inf]), np.array([1.0]))
        with pytest.raises(ValueError):
            dtw_distance(np.ones((2, 2)), np.ones(2))

    def test_banded_matches_exact_when_band_is_wide(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(30), rng.standard_normal(25)
        exact = dtw_distance(a, b)
        banded = dtw_distance_banded(a, b, band=30)
        assert banded == pytest.approx(exact, rel=1e-9)

    def test_banded_never_below_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.standard_normal(40), rng.standard_normal(35)
            assert dtw_distance_banded(a, b, band=3) >= dtw_distance(a, b) - 1e-9

    def test_dtw_path_endpoints(self):
        a = np.array([0.0, 1.0, 0.0, -1.0])
        b = np.array([0.0, 1.0, -1.0])
        distance, path = dtw_path(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (len(a) - 1, len(b) - 1)
        assert distance >= 0

    @given(series_strategy, series_strategy)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_non_negativity(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        d_ab = dtw_distance(a, b)
        d_ba = dtw_distance(b, a)
        assert d_ab >= 0
        assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-9)

    @given(series_strategy)
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero(self, a):
        a = np.asarray(a)
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_znormalize_constant_series(self):
        np.testing.assert_allclose(znormalize(np.full(5, 3.0)), np.zeros(5))


class TestDTWVectorized:
    """The anti-diagonal sweep must reproduce the scalar reference exactly."""

    def test_matches_reference_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, m = rng.integers(1, 50, size=2)
            a, b = rng.standard_normal(int(n)), rng.standard_normal(int(m))
            assert dtw_distance(a, b) == dtw_distance_reference(a, b)
            assert dtw_distance(a, b, normalize=False) == dtw_distance_reference(
                a, b, normalize=False
            )

    @given(series_strategy, series_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_property(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert dtw_distance(a, b) == pytest.approx(
            dtw_distance_reference(a, b), rel=1e-12, abs=1e-12
        )

    @given(series_strategy, series_strategy)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), abs=1e-12)

    @given(series_strategy)
    @settings(max_examples=30, deadline=None)
    def test_zero_self_distance(self, a):
        a = np.asarray(a)
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_lengths(self):
        assert dtw_distance(
            np.array([3.0]), np.array([1.0, 2.0]), normalize=False
        ) == dtw_distance_reference(np.array([3.0]), np.array([1.0, 2.0]), normalize=False)
        assert dtw_distance(np.array([2.0]), np.array([2.0]), normalize=False) == 0.0

    def test_full_band_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(2, 40, size=2)
            a, b = rng.standard_normal(int(n)), rng.standard_normal(int(m))
            exact = dtw_distance(a, b)
            assert dtw_distance_banded(a, b, band=max(int(n), int(m))) == pytest.approx(
                exact, rel=1e-12, abs=1e-12
            )

    def test_band_at_least_length_difference_is_finite_upper_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m = rng.integers(2, 40, size=2)
            a, b = rng.standard_normal(int(n)), rng.standard_normal(int(m))
            banded = dtw_distance_banded(a, b, band=abs(int(n) - int(m)))
            exact = dtw_distance(a, b)
            assert np.isfinite(banded)
            assert banded >= exact - 1e-9

    def test_path_distance_matches_vectorized_distance(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(25), rng.standard_normal(31)
        distance, path = dtw_path(a, b)
        assert distance == pytest.approx(dtw_distance(a, b), abs=1e-12)
        # Path is monotone and contiguous.
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert 0 <= i1 - i0 <= 1 and 0 <= j1 - j0 <= 1
            assert (i1 - i0) + (j1 - j0) >= 1


class TestMatching:
    def test_simple_assignment(self):
        weights = np.array([[0.9, 0.1], [0.2, 0.8]])
        result = max_weight_matching(weights)
        assert set(result.pairs) == {(0, 0), (1, 1)}
        assert result.total_weight == pytest.approx(1.7)

    def test_rectangular_matrices(self):
        weights = np.array([[0.5, 0.9, 0.1]])
        result = max_weight_matching(weights)
        assert result.pairs == [(0, 1)]
        tall = max_weight_matching(weights.T)
        assert tall.pairs == [(1, 0)]

    def test_zero_weights_not_matched(self):
        result = max_weight_matching(np.zeros((2, 2)))
        assert result.pairs == [] and result.total_weight == 0.0
        assert result.mean_weight == 0.0

    def test_empty_matrix(self):
        result = max_weight_matching(np.zeros((0, 3)))
        assert result.pairs == []

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.array([[-1.0]]))

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_hungarian_matches_networkx(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random((rows, cols))
        hungarian = max_weight_matching(weights)
        reference = max_weight_matching_networkx(weights)
        assert hungarian.total_weight == pytest.approx(reference.total_weight, rel=1e-9)


class TestRelevance:
    def test_low_level_relevance_bounds(self):
        a = np.sin(np.linspace(0, 6, 30))
        assert low_level_relevance(a, a) == pytest.approx(1.0)
        other = np.linspace(-5, 5, 30)
        value = low_level_relevance(a, other)
        assert 0.0 < value < 1.0

    def test_relevance_prefers_source_table(self, simple_table):
        data = simple_table.to_underlying_data(["rising", "wave"], x_column="time")
        n = simple_table.num_rows
        rng = np.random.default_rng(0)
        unrelated = Table(
            "tbl_unrelated",
            [
                Column("a", rng.standard_normal(n)),
                Column("b", rng.standard_normal(n)),
            ],
        )
        computer = RelevanceComputer()
        assert computer.score(data, simple_table) > computer.score(data, unrelated)

    def test_rank_and_top_k(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        rng = np.random.default_rng(1)
        other = Table(
            "tbl_other", [Column("noise", rng.standard_normal(simple_table.num_rows))]
        )
        computer = RelevanceComputer(use_banded_dtw=True)
        ranked = computer.rank_tables(data, [other, simple_table])
        assert ranked[0][0] == "tbl_simple"
        assert computer.top_k(data, [other, simple_table], k=1) == ["tbl_simple"]
        with pytest.raises(ValueError):
            computer.top_k(data, [other], k=0)

    def test_mean_aggregate_is_scale_free(self, simple_table):
        data = simple_table.to_underlying_data(["rising", "wave"], x_column="time")
        sum_score = RelevanceComputer(aggregate="sum").score(data, simple_table)
        mean_score = RelevanceComputer(aggregate="mean").score(data, simple_table)
        assert sum_score == pytest.approx(mean_score * 2, rel=1e-6)

    def test_invalid_aggregate(self):
        with pytest.raises(ValueError):
            RelevanceComputer(aggregate="median")

    def test_relevance_explanation_names_columns(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        result = RelevanceComputer().relevance(data, simple_table)
        assert "wave" in result.matched_columns(simple_table)


class TestRelevanceCache:
    """The process-wide memo for ground-truth relevance scores."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_relevance_cache()
        set_relevance_cache_enabled(None)
        yield
        clear_relevance_cache()
        set_relevance_cache_enabled(None)

    def test_memoised_scores_equal_uncached(self, simple_table):
        data = simple_table.to_underlying_data(["rising", "wave"], x_column="time")
        cold = ground_truth_relevance(data, simple_table, max_points=24)
        warm = ground_truth_relevance(data, simple_table, max_points=24)
        assert warm == cold
        info = relevance_cache_info()
        assert info.hits == 1 and info.size == 1

        set_relevance_cache_enabled(False)
        uncached = ground_truth_relevance(data, simple_table, max_points=24)
        assert uncached == pytest.approx(cold, abs=1e-12)

    def test_key_distinguishes_content_not_just_ids(self, simple_table):
        """Two tables sharing an id but not contents must not collide."""
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        rng = np.random.default_rng(7)
        impostor = Table(
            simple_table.table_id,
            [Column("noise", rng.standard_normal(simple_table.num_rows))],
        )
        a = ground_truth_relevance(data, simple_table, max_points=24)
        b = ground_truth_relevance(data, impostor, max_points=24)
        assert a != b
        assert relevance_cache_info().size == 2

    def test_key_distinguishes_max_points_and_computer(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        ground_truth_relevance(data, simple_table, max_points=16)
        ground_truth_relevance(data, simple_table, max_points=24)
        ground_truth_relevance(
            data, simple_table, max_points=24,
            computer=RelevanceComputer(use_banded_dtw=True, aggregate="mean"),
        )
        assert relevance_cache_info().size == 3
        assert relevance_cache_info().hits == 0

    def test_env_flag_disables(self, simple_table, monkeypatch):
        monkeypatch.setenv("REPRO_RELEVANCE_CACHE", "0")
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        ground_truth_relevance(data, simple_table, max_points=16)
        assert relevance_cache_info().size == 0
        assert not relevance_cache_info().enabled

    def test_relevance_matrix_hits_across_recomputation(self, simple_table):
        """The fixture-cost scenario: recomputing a matrix is pure cache hits."""
        from repro.data import CorpusConfig, filter_line_chart_records, generate_corpus
        from repro.fcm import FCMConfig, build_training_data, relevance_matrix

        records = filter_line_chart_records(
            generate_corpus(CorpusConfig(num_records=6, min_rows=60, max_rows=80, seed=5))
        )
        config = FCMConfig(embed_dim=16, num_heads=2, num_layers=1,
                           data_segment_size=32, beta=2, max_data_segments=4)
        data = build_training_data(records, config, seed=0)
        first, order1 = relevance_matrix(data.examples, data.tables, max_points=16)
        misses_after_first = relevance_cache_info().misses
        second, order2 = relevance_matrix(data.examples, data.tables, max_points=16)
        assert order1 == order2
        assert np.array_equal(first, second)
        assert relevance_cache_info().misses == misses_after_first  # all hits
