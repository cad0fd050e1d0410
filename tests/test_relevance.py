"""Tests and properties for DTW, bipartite matching and Rel(D, T)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BenchmarkConfig
from repro.data import Column, Table
from repro.fcm import TrainerConfig, ground_truth_relevance, ground_truth_relevances
from repro.relevance import (
    RelevanceComputer,
    clear_relevance_cache,
    relevance_cache_info,
    set_relevance_cache_enabled,
    dtw_distance,
    dtw_distances,
    low_level_relevance,
    max_weight_matching,
    max_weight_matching_networkx,
    znormalize,
)

def dtw_distance_reference(a: np.ndarray, b: np.ndarray, normalize: bool = True) -> float:
    """Plain O(n·m) per-cell DTW loop: the ground truth the stacked
    anti-diagonal sweep of ``dtw_distances`` is tested against, bitwise."""
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
        # The oracle, without normalisation: optimal alignment pairs
        # (0,0), (1,1), (2,1) -> |1-2|=1
        assert dtw_distance_reference(a, b, normalize=False) == pytest.approx(1.0)
        # Normalised, a is [-√1.5, 0, √1.5] and b is [-1, 1]: the ends cost
        # √1.5 - 1 each, the middle point 1 whichever end it joins.
        assert dtw_distance(a, b) == pytest.approx(2 * np.sqrt(1.5) - 1)

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
        # One point z-normalises to [0.0]; [1, 2] to [-1, 1].
        assert dtw_distance(np.array([3.0]), np.array([1.0, 2.0])) == 2.0
        assert dtw_distance(np.array([2.0]), np.array([5.0])) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),
                st.integers(min_value=1, max_value=60),
                st.sampled_from(["noise", "constant a", "constant b", "shared"]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_batch_is_the_per_cell_loop(self, shapes, seed):
        """Every distance of a stacked batch is the reference loop's for its
        pair alone, bitwise, and so is unmoved by permuting or splitting —
        also when one array object recurs across pairs, as either side."""
        rng = np.random.default_rng(seed)
        pairs = []
        for n, m, kind in shapes:
            a, b = rng.standard_normal(n) * 10, rng.standard_normal(m)
            if kind == "constant a":
                a = np.full(n, a[0])
            elif kind == "constant b":
                b = np.full(m, b[0])
            elif kind == "shared" and pairs:
                a, b = pairs[-1][0], pairs[0][0]
            pairs.append((a, b))
        expected = [float(dtw_distance_reference(a, b)).hex() for a, b in pairs]
        got = dtw_distances(pairs)
        assert [float(value).hex() for value in got] == expected
        order = rng.permutation(len(pairs))
        permuted = dtw_distances([pairs[k] for k in order])
        assert [float(value).hex() for value in permuted] == [expected[k] for k in order]
        cut = int(rng.integers(0, len(pairs) + 1))
        split = np.concatenate([dtw_distances(pairs[:cut]), dtw_distances(pairs[cut:])])
        assert [float(value).hex() for value in split] == expected

    def test_empty_batch_and_validation(self):
        assert dtw_distances([]).shape == (0,)
        with pytest.raises(ValueError):
            dtw_distances([(np.ones(3), np.ones(2)), (np.ones(2), np.array([np.nan]))])


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
        computer = RelevanceComputer()
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

    def test_weight_matrices_are_the_per_cell_weights(self, simple_table):
        """One sweep over many (data, table) pairs gives each cell the
        reference loop's ``1 / (1 + DTW)``, bitwise."""
        rng = np.random.default_rng(2)
        short = Table("tbl_short", [Column("a", rng.standard_normal(7)), Column("flat", np.ones(7))])
        pairs = [
            (simple_table.to_underlying_data(["rising", "wave"], x_column="time"), simple_table),
            (simple_table.to_underlying_data(["wave"], x_column="time"), short),
            (short.to_underlying_data(["a", "flat"]), simple_table),
        ]
        matrices = RelevanceComputer().weight_matrices(pairs)
        for (data, table), matrix in zip(pairs, matrices):
            expected = [
                [1.0 / (1.0 + dtw_distance_reference(s.y, c.values)) for c in table.columns]
                for s in data
            ]
            assert matrix.tolist() == expected
            assert RelevanceComputer().weight_matrix(data, table).tolist() == expected
        for aggregate in ("sum", "mean"):
            computer = RelevanceComputer(aggregate=aggregate)
            assert computer.scores(pairs) == [computer.relevance(*pair).score for pair in pairs]

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
            data, simple_table, max_points=24, computer=RelevanceComputer(aggregate="sum")
        )
        assert relevance_cache_info().size == 3
        assert relevance_cache_info().hits == 0

    def test_repeated_pairs_count_like_the_sequential_loop(self, simple_table):
        """A pair met twice in one call is a miss, then a hit — what one
        lookup per pair in row-major order records — and is computed once."""
        wave = simple_table.to_underlying_data(["wave"], x_column="time")
        rising = simple_table.to_underlying_data(["rising"], x_column="time")
        other = Table("tbl_other", [Column("noise", np.random.default_rng(3).standard_normal(50))])
        ground_truth_relevance(rising, other, max_points=16)
        scores = ground_truth_relevances(
            [wave, rising, wave], [simple_table, other, simple_table], max_points=16
        )
        # Rows: wave (3 lookups: miss, miss, hit), rising (miss, hit, hit),
        # wave again (hit, hit, hit); the warm-up call above was one miss.
        info = relevance_cache_info()
        assert (info.misses, info.hits, info.size) == (1 + 3, 6, 4)
        assert np.array_equal(scores[0], scores[2])
        assert scores[0, 0] == scores[0, 2] and scores[1, 0] == scores[1, 2]
        clear_relevance_cache()
        for i, data in enumerate([wave, rising, wave]):
            for j, table in enumerate([simple_table, other, simple_table]):
                assert ground_truth_relevance(data, table, max_points=16) == scores[i, j]

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


class TestRelevanceResolution:
    """Fewer than two points leave DTW nothing to warp: every series
    z-normalises to ``[0.0]`` and every table scores 1.0."""

    def test_ground_truth_relevances_rejects_it(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        for max_points in (0, 1):
            with pytest.raises(ValueError, match="max_points"):
                ground_truth_relevances([data], [simple_table], max_points=max_points)
        assert ground_truth_relevances([data], [simple_table], max_points=2).shape == (1, 1)

    def test_trainer_config_rejects_it(self):
        for max_points in (0, 1):
            with pytest.raises(ValueError, match="relevance_max_points"):
                TrainerConfig(relevance_max_points=max_points)
        assert TrainerConfig(relevance_max_points=2).relevance_max_points == 2

    def test_benchmark_config_rejects_it(self):
        for max_points in (0, 1):
            with pytest.raises(ValueError, match="relevance_max_points"):
                BenchmarkConfig(relevance_max_points=max_points)
        assert BenchmarkConfig(relevance_max_points=2).relevance_max_points == 2
