"""Tests and properties for DTW, bipartite matching and Rel(D, T)."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bench import BenchmarkConfig
from repro.data import Column, Table
from repro.fcm import TrainerConfig, ground_truth_relevance, ground_truth_relevances
from repro.relevance import (
    clear_relevance_cache,
    dtw_distance,
    dtw_distances,
    max_weight_matching,
    relevance_cache_info,
    relevances,
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


def brute_force_matching_total(weights: np.ndarray) -> float:
    """Largest row-order sum over every injective assignment of the shorter
    side into the longer: the oracle of :func:`max_weight_matching`'s total
    (weights are non-negative, so a full assignment is never worse than a
    partial one)."""
    rows, cols = weights.shape
    if rows > cols:
        return brute_force_matching_total(weights.T)
    best = 0.0
    for columns in itertools.permutations(range(cols), rows):
        best = max(best, float(sum(weights[r, c] for r, c in enumerate(columns))))
    return best


class TestMatching:
    def test_simple_assignment(self):
        total, count = max_weight_matching(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert total == 0.9 + 0.8 and count == 2

    def test_rectangular_matrices(self):
        weights = np.array([[0.5, 0.9, 0.1]])
        assert max_weight_matching(weights) == (0.9, 1)
        assert max_weight_matching(weights.T) == (0.9, 1)

    def test_zero_weights_not_matched(self):
        assert max_weight_matching(np.zeros((2, 2))) == (0.0, 0)
        assert max_weight_matching(np.array([[0.5, 0.0], [0.0, 0.0]])) == (0.5, 1)

    def test_empty_matrix(self):
        assert max_weight_matching(np.zeros((0, 3))) == (0.0, 0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            max_weight_matching(np.ones(3))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_is_the_brute_force_optimum(self, rows, cols, data):
        """Weights on a grid of eighths (zeros and ties common, every sum
        exact): the matched total is the best injective assignment's,
        exactly — ties may change which pairs are matched, never the total —
        and a positive pair is counted only when the total is positive."""
        cells = st.integers(min_value=0, max_value=8)
        grid = data.draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))
        weights = np.array(grid, dtype=np.float64).reshape(rows, cols) / 8.0
        total, count = max_weight_matching(weights)
        assert total == brute_force_matching_total(weights)
        assert 0 <= count <= min(rows, cols)
        assert (count == 0) == (total == 0.0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_is_the_brute_force_optimum_on_random_weights(self, rows, cols, seed):
        weights = np.random.default_rng(seed).random((rows, cols))
        total, count = max_weight_matching(weights)
        assert total == pytest.approx(brute_force_matching_total(weights), rel=1e-12)
        assert count == min(rows, cols)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_ignores_row_and_column_order(self, rows, cols, seed):
        """On a grid of eighths (every sum exact) relabelling either side
        does not move the total.  It may move the count: ``[[2, 1], [1, 0]]``
        / 8 has two optimal assignments, of one and of two positive pairs."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 9, size=(rows, cols)) / 8.0
        shuffled = weights[rng.permutation(rows)][:, rng.permutation(cols)]
        assert max_weight_matching(shuffled)[0] == max_weight_matching(weights)[0]


def reference_relevance(data, table) -> float:
    """``Rel(D, T)`` from the reference loop's ``1 / (1 + DTW)`` weights:
    the matched mean of :func:`max_weight_matching`."""
    weights = np.array(
        [[1.0 / (1.0 + dtw_distance_reference(s.y, c.values)) for c in table.columns] for s in data]
    )
    total, count = max_weight_matching(weights)
    return total / count if count else 0.0


class TestRelevance:
    def test_low_level_relevance_bounds(self, simple_table):
        """One line against one column scores ``1 / (1 + DTW)``: 1 for the
        same shape, inside (0, 1) otherwise."""
        wave = simple_table.to_underlying_data(["wave"], x_column="time")
        same = Table("tbl_same", [Column("wave", simple_table.column("wave").values * 3.0 + 1.0)])
        other = Table("tbl_other", [Column("ramp", np.linspace(-5, 5, simple_table.num_rows))])
        scores = relevances([(wave, same), (wave, other)])
        assert scores[0] == pytest.approx(1.0)
        assert 0.0 < scores[1] < 1.0

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
        own, other = relevances([(data, simple_table), (data, unrelated)])
        assert own > other

    def test_relevances_are_the_matched_mean_of_the_per_cell_weights(self, simple_table):
        """One sweep over many (data, table) pairs gives each pair the
        matched mean of the reference loop's ``1 / (1 + DTW)`` cells,
        bitwise, and permuting the batch moves no bit."""
        rng = np.random.default_rng(2)
        short = Table("tbl_short", [Column("a", rng.standard_normal(7)), Column("flat", np.ones(7))])
        pairs = [
            (simple_table.to_underlying_data(["rising", "wave"], x_column="time"), simple_table),
            (simple_table.to_underlying_data(["wave"], x_column="time"), short),
            (short.to_underlying_data(["a", "flat"]), simple_table),
            (short.to_underlying_data(["flat"]), short),
        ]
        expected = [reference_relevance(*pair).hex() for pair in pairs]
        assert [score.hex() for score in relevances(pairs).tolist()] == expected
        for order in itertools.permutations(range(len(pairs))):
            permuted = relevances([pairs[k] for k in order]).tolist()
            assert [score.hex() for score in permuted] == [expected[k] for k in order]
        assert relevances([]).shape == (0,)


class TestRelevanceCache:
    """The process-wide memo for ground-truth relevance scores."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_relevance_cache()
        yield
        clear_relevance_cache()

    def test_memoised_scores_equal_uncached(self, simple_table):
        data = simple_table.to_underlying_data(["rising", "wave"], x_column="time")
        cold = ground_truth_relevance(data, simple_table, max_points=24)
        warm = ground_truth_relevance(data, simple_table, max_points=24)
        assert warm == cold
        info = relevance_cache_info()
        assert info.hits == 1 and info.size == 1

        clear_relevance_cache()
        assert ground_truth_relevance(data, simple_table, max_points=24) == cold
        assert relevance_cache_info().misses == 1

    def test_clear_empties_the_memo_and_its_counts(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        ground_truth_relevances([data, data], [simple_table], max_points=16)
        info = relevance_cache_info()
        assert (info.misses, info.hits, info.size) == (1, 1, 1)
        clear_relevance_cache()
        info = relevance_cache_info()
        assert (info.misses, info.hits, info.size) == (0, 0, 0)

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

    def test_key_distinguishes_max_points(self, simple_table):
        data = simple_table.to_underlying_data(["wave"], x_column="time")
        ground_truth_relevance(data, simple_table, max_points=16)
        ground_truth_relevance(data, simple_table, max_points=24)
        assert relevance_cache_info().size == 2
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


def test_relevance_needs_no_graph_library():
    """Every package that computes or reads ``Rel(D, T)`` imports, and
    scores a pair, with ``networkx`` unimportable."""
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "import numpy as np\n"
        "import repro.baselines, repro.bench, repro.fcm\n"
        "from repro.data import Column, Table\n"
        "x, y = np.arange(8.0), np.sin(np.arange(8.0))\n"
        "table = Table('t', [Column('x', x, role='x'), Column('y', y)])\n"
        "data = table.to_underlying_data(['y'], x_column='x')\n"
        "assert repro.fcm.ground_truth_relevance(data, table, max_points=8) == 1.0\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_serving_needs_no_scipy():
    """Only ``Rel(D, T)`` needs scipy: a service builds, answers a chart and
    survives a snapshot round trip with ``scipy`` unimportable, while the
    first relevance call fails on the import; a plain ``repro.serving.http``
    import loads no scipy module."""
    script = (
        "import sys, tempfile; sys.modules['scipy'] = None\n"
        "from pathlib import Path\n"
        "import repro.serving, repro.serving.http, repro.fcm, repro.bench\n"
        "from repro.charts import render_chart_for_table\n"
        "from repro.data import SynthConfig, synth_table\n"
        "from repro.fcm import FCMConfig, FCMModel\n"
        "from repro.relevance import relevances\n"
        "from repro.serving import SearchService\n"
        "config = FCMConfig(embed_dim=16, num_heads=2, num_layers=1,\n"
        "                   data_segment_size=32, beta=2, max_data_segments=4)\n"
        "model = FCMModel(config)\n"
        "corpus = SynthConfig(num_tables=8, num_rows=48, max_columns=2, num_clusters=4)\n"
        "tables = [synth_table(i, corpus) for i in range(8)]\n"
        "service = SearchService(model)\n"
        "service.build(tables)\n"
        "chart = render_chart_for_table(tables[3], tables[3].column_names,\n"
        "                               spec=config.chart_spec)\n"
        "ranking = service.query(chart, k=5).ranking\n"
        "assert len(ranking) == 5\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = service.save_index(Path(tmp) / 'index.npz')\n"
        "    restored = SearchService.load_index(model, path)\n"
        "    assert restored.query(chart, k=5).ranking == ranking\n"
        "data = tables[3].to_underlying_data(tables[3].column_names[:1])\n"
        "try:\n"
        "    relevances([(data, tables[3])])\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('Rel(D, T) ran without scipy')\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.serving.http\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        ],
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    assert loaded.stdout.strip() == "[]"
