"""Tests for ``repro.data.synth`` — the deterministic scale corpus.

The ledger benchmark (``benchmarks/ledger/inputs.py::make_tables``) draws
tables ``first .. first + count - 1`` of a seed's corpus at several sizes,
so the property that carries the whole module is O(1) per-table
determinism: ``synth_table(i, config)`` must be a pure function of
``(config.seed, i)`` — never of ``num_tables``, generation order, or how
many tables were generated before it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    SynthConfig,
    clustered_embeddings,
    synth_query_charts,
    synth_query_indices,
    synth_table,
    synth_tables,
)


def _table_bytes(table):
    return [column.values.tobytes() for column in table.columns]


class TestSynthDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=10),
        small=st.integers(min_value=1, max_value=50),
        large=st.integers(min_value=1000, max_value=100_000),
    )
    def test_table_is_pure_function_of_seed_and_index(
        self, index, seed, small, large
    ):
        """Corpus size must not leak into any table's content."""
        in_small = synth_table(index, SynthConfig(num_tables=small, seed=seed))
        in_large = synth_table(index, SynthConfig(num_tables=large, seed=seed))
        assert in_small.table_id == in_large.table_id
        assert in_small.column_names == in_large.column_names
        assert _table_bytes(in_small) == _table_bytes(in_large)

    def test_repeated_generation_is_identical(self):
        config = SynthConfig(num_tables=20, seed=3)
        first = [_table_bytes(t) for t in synth_tables(config)]
        second = [_table_bytes(t) for t in synth_tables(config)]
        assert first == second

    def test_seed_changes_the_corpus(self):
        base = synth_table(0, SynthConfig(num_tables=1, seed=0))
        other = synth_table(0, SynthConfig(num_tables=1, seed=1))
        assert _table_bytes(base) != _table_bytes(other)

    def test_streaming_matches_random_access(self):
        config = SynthConfig(num_tables=12, seed=5)
        streamed = list(synth_tables(config))
        for index, table in enumerate(streamed):
            assert _table_bytes(table) == _table_bytes(synth_table(index, config))


class TestSynthShape:
    def test_table_ids_unique_and_stable_format(self):
        config = SynthConfig(num_tables=30)
        ids = [t.table_id for t in synth_tables(config)]
        assert len(set(ids)) == 30
        assert ids[7] == "synth_000007"

    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(min_value=0, max_value=200))
    def test_column_and_row_bounds_hold(self, index):
        config = SynthConfig(
            num_tables=1, num_rows=40, min_columns=2, max_columns=4
        )
        table = synth_table(index, config)
        assert 2 <= table.num_columns <= 4
        assert table.num_rows == 40
        assert all(np.isfinite(column.values).all() for column in table.columns)

    def test_clusters_share_shape_but_not_scale(self):
        """Same-cluster tables correlate strongly; the value scales differ
        across clusters (the interval tree needs spread ranges to prune)."""
        config = SynthConfig(
            num_tables=8, num_clusters=4, min_columns=1, max_columns=1
        )
        tables = list(synth_tables(config))

        def normalised(table):
            values = table.columns[0].values
            centred = values - values.mean()
            return centred / np.linalg.norm(centred)

        same_cluster = float(normalised(tables[0]) @ normalised(tables[4]))
        assert same_cluster > 0.9
        spans = set()
        for table in tables[:4]:  # one table per cluster
            values = table.columns[0].values
            spans.add(round(float(values.max() - values.min()), 1))
        assert len(spans) >= 3  # value_scales actually spread the ranges

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="num_tables"):
            SynthConfig(num_tables=-1)
        with pytest.raises(ValueError, match="num_rows"):
            SynthConfig(num_tables=1, num_rows=1)
        with pytest.raises(ValueError, match="min_columns"):
            SynthConfig(num_tables=1, min_columns=3, max_columns=2)
        with pytest.raises(ValueError, match="num_clusters"):
            SynthConfig(num_tables=1, num_clusters=0)
        with pytest.raises(ValueError, match="value_scales"):
            SynthConfig(num_tables=1, value_scales=())
        with pytest.raises(ValueError, match="index"):
            synth_table(-1, SynthConfig(num_tables=1))


class TestSynthQueries:
    def test_query_indices_cover_the_range_without_duplicates(self):
        config = SynthConfig(num_tables=100)
        indices = synth_query_indices(config, 10)
        assert indices == sorted(set(indices))
        assert indices[0] == 0 and indices[-1] == 99
        assert synth_query_indices(config, 0) == []
        assert synth_query_indices(replace(config, num_tables=0), 10) == []
        # More charts than tables degrades to one chart per table.
        assert synth_query_indices(replace(config, num_tables=3), 10) == [0, 1, 2]

    def test_query_charts_point_back_at_their_source_table(self):
        config = SynthConfig(num_tables=40, seed=2)
        pairs = synth_query_charts(config, 5)
        assert len(pairs) == 5
        for index, chart in pairs:
            table = synth_table(index, config)
            assert chart.source_table_id == table.table_id
            assert chart.num_lines == table.num_columns


class TestClusteredEmbeddings:
    def test_shapes_labels_and_determinism(self):
        vectors, labels = clustered_embeddings(60, 8, num_clusters=6, seed=1)
        again, _ = clustered_embeddings(60, 8, num_clusters=6, seed=1)
        assert vectors.shape == (60, 8)
        assert labels.shape == (60,)
        assert set(labels) == set(range(6))
        np.testing.assert_array_equal(vectors, again)
        different, _ = clustered_embeddings(60, 8, num_clusters=6, seed=2)
        assert not np.array_equal(vectors, different)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_vectors"):
            clustered_embeddings(-1, 8)
        with pytest.raises(ValueError, match="num_clusters"):
            clustered_embeddings(10, 8, num_clusters=0)
