"""Tests for ``repro.serving``: incremental parity, snapshots, sharded builds.

The load-bearing property throughout: any interleaving of ``add_tables`` /
``remove_tables`` on a live :class:`SearchService` must be indistinguishable
— interval-tree candidates, LSH buckets, query rankings — from a
from-scratch build over the final table set.  Snapshots and multi-process
sharded builds must be equally invisible.

Everything runs with an *untrained* tiny model: parity properties do not
depend on the weights, and skipping training keeps the whole module inside
the ``-m "not slow"`` fast profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.charts import render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMModel, FCMScorer
from repro.index import Interval, IntervalTree, LSHConfig, RandomHyperplaneLSH
from repro.nn import using_dtype
from repro.obs import stage_names
from repro.serving import (
    CLOSED_FALLBACK_REASON,
    QueryWorkerPool,
    SearchService,
    ServingConfig,
    SnapshotError,
    WorkerPoolError,
    compact_snapshot,
    encode_tables_sharded,
    shard_tables,
    snapshot_segments,
    split_shards,
)

from conftest import active_dtype, dtype_tol, read_archive

#: Wall-clock guard for the multi-process tests: a stuck pool degrades to the
#: in-process fallback instead of hanging the suite.
SHARD_TIMEOUT_SECONDS = 120.0

STRATEGIES = ("none", "interval", "lsh", "hybrid")


def _interval_key(interval: Interval):
    return (interval.low, interval.high, interval.table_id, interval.column_name)


def _interval_set(tree: IntervalTree):
    return {_interval_key(iv) for iv in tree.intervals}


@pytest.fixture(scope="module")
def serving_model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


@pytest.fixture(scope="module")
def serving_tables(small_records):
    return [record.table for record in small_records]


@pytest.fixture(scope="module")
def query_charts(small_records, tiny_fcm_config):
    charts = []
    for record in small_records[:3]:
        charts.append(
            render_chart_for_table(
                record.table,
                list(record.spec.y_columns),
                x_column=record.spec.x_column,
                spec=tiny_fcm_config.chart_spec,
            )
        )
    return charts


def _make_service(model, **config_kwargs) -> SearchService:
    config_kwargs.setdefault("lsh_config", LSHConfig(num_bits=6, hamming_radius=1))
    return SearchService(model, ServingConfig(**config_kwargs))


def _assert_rankings_match(a, b, tolerance=None):
    if tolerance is None:
        # float64 keeps the historical tight bound; float32 allows the
        # ~1e-6-epsilon noise two differently-batched encodes accumulate.
        tolerance = dtype_tol(1e-8, 5e-5)
    if active_dtype() == np.float64:
        assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
        for (_, score_a), (_, score_b) in zip(a.ranking, b.ranking):
            assert abs(score_a - score_b) <= tolerance
        return
    # Under float32 two independently built indexes may swap *near-tied*
    # entries: any position where the ids differ must be such a tie, and
    # every id ranked by both must score the same up to the tolerance.
    scores_a, scores_b = dict(a.ranking), dict(b.ranking)
    for tid in set(scores_a) & set(scores_b):
        assert abs(scores_a[tid] - scores_b[tid]) <= tolerance
    for (ta, score_a), (tb, score_b) in zip(a.ranking, b.ranking):
        if ta != tb:
            assert abs(score_a - score_b) <= tolerance, (ta, tb)


def _assert_equivalent(service: SearchService, reference: SearchService, charts):
    """Structures and query results of ``service`` equal the fresh rebuild."""
    assert sorted(service.table_ids) == sorted(reference.table_ids)
    assert _interval_set(service.processor.interval_tree) == _interval_set(
        reference.processor.interval_tree
    )
    assert service.processor.lsh.buckets == reference.processor.lsh.buckets
    assert (
        service.processor.lsh.export_codes()
        == reference.processor.lsh.export_codes()
    )
    for chart in charts:
        for strategy in STRATEGIES:
            assert service.processor.candidates(chart, strategy) == (
                reference.processor.candidates(chart, strategy)
            )
            _assert_rankings_match(
                service.query(chart, k=5, strategy=strategy),
                reference.query(chart, k=5, strategy=strategy),
            )


# --------------------------------------------------------------------------- #
# Interval index: incremental adds and removes
# --------------------------------------------------------------------------- #
class TestIntervalTreeIncremental:
    def _brute_force(self, intervals, low, high):
        return {iv.table_id for iv in intervals if iv.overlaps(low, high)}

    def test_add_after_build_is_queryable_without_rebuild(self):
        tree = IntervalTree([Interval(0.0, 5.0, "a", "c")])
        tree.add(Interval(10.0, 20.0, "b", "c"))
        assert tree.query_table_ids(12.0, 13.0) == {"b"}
        assert tree.query_table_ids(-100.0, 100.0) == {"a", "b"}
        assert len(tree) == 2

    def test_remove_table_drops_its_rows(self):
        tree = IntervalTree(
            [
                Interval(0.0, 5.0, "a", "c1"),
                Interval(3.0, 8.0, "a", "c2"),
                Interval(4.0, 12.0, "b", "c1"),
            ]
        )
        assert tree.remove_table("a") == 2
        assert tree.query_table_ids(4.0, 4.5) == {"b"}
        assert len(tree) == 1
        assert {iv.table_id for iv in tree.intervals} == {"b"}
        # A build after the remove must not change any answer.
        tree.build()
        assert tree.query_table_ids(4.0, 4.5) == {"b"}
        assert len(tree) == 1

    def test_remove_unknown_table_is_noop(self):
        tree = IntervalTree([Interval(0.0, 1.0, "a", "c")])
        assert tree.remove_table("nope") == 0
        assert tree.query_table_ids(0.0, 1.0) == {"a"}

    def test_remove_then_re_add_does_not_resurrect_stale_intervals(self):
        tree = IntervalTree(
            [Interval(0.0, 5.0, "a", "old"), Interval(10.0, 20.0, "b", "c")]
        )
        tree.remove_table("a")
        tree.add(Interval(100.0, 200.0, "a", "new"))
        assert tree.query_table_ids(0.0, 5.0) == set()  # old "a" stays dead
        assert tree.query_table_ids(150.0, 160.0) == {"a"}

    def test_random_interleaving_matches_brute_force(self):
        rng = np.random.default_rng(42)
        tree = IntervalTree()
        live: list = []
        next_id = 0
        for step in range(200):
            action = rng.random()
            if action < 0.55 or not live:
                low = float(rng.uniform(-50, 50))
                interval = Interval(low, low + float(rng.uniform(0, 20)), f"t{next_id}", "c")
                next_id += 1
                tree.add(interval)
                live.append(interval)
            else:
                victim = live[int(rng.integers(len(live)))].table_id
                expected_removed = sum(1 for iv in live if iv.table_id == victim)
                assert tree.remove_table(victim) == expected_removed
                live = [iv for iv in live if iv.table_id != victim]
            if step % 10 == 0:
                low = float(rng.uniform(-60, 60))
                high = low + float(rng.uniform(0, 30))
                assert tree.query_table_ids(low, high) == self._brute_force(live, low, high)
        assert {_interval_key(iv) for iv in tree.intervals} == {
            _interval_key(iv) for iv in live
        }


# --------------------------------------------------------------------------- #
# LSH: removal and the bulk add
# --------------------------------------------------------------------------- #
class TestLSHRemove:
    def test_remove_drops_table_and_empty_buckets(self):
        lsh = RandomHyperplaneLSH(8, LSHConfig(num_bits=8, hamming_radius=0, seed=0))
        rng = np.random.default_rng(0)
        shared = rng.standard_normal(8)
        lsh.add("a", shared[None, :])
        lsh.add("b", shared[None, :])
        lsh.add("c", rng.standard_normal((2, 8)))
        buckets_before = lsh.buckets

        assert lsh.remove("c") is True
        assert lsh.remove("c") is False  # already gone
        assert "c" not in lsh.indexed_table_ids
        # Post-removal state identical to an index that never saw "c".
        fresh = RandomHyperplaneLSH(8, LSHConfig(num_bits=8, hamming_radius=0, seed=0))
        fresh.add("a", shared[None, :])
        fresh.add("b", shared[None, :])
        assert lsh.buckets == fresh.buckets
        assert lsh.query(shared[None, :]) == {"a", "b"}
        assert buckets_before != lsh.buckets

    def test_bulk_add_equals_table_by_table(self):
        lsh = RandomHyperplaneLSH(8, LSHConfig(num_bits=6, hamming_radius=1, seed=3))
        rng = np.random.default_rng(1)
        ids = [f"t{i}" for i in range(4)]
        embeddings = [rng.standard_normal((i + 1, 8)) for i in range(4)]
        for table_id, columns in zip(ids, embeddings):
            lsh.add(table_id, columns)
        clone = RandomHyperplaneLSH(8, LSHConfig(num_bits=6, hamming_radius=1, seed=3))
        clone.add_tables(ids, embeddings)
        assert clone.export_codes() == lsh.export_codes()
        assert clone.buckets == lsh.buckets
        probe = rng.standard_normal((2, 8))
        assert clone.query(probe) == lsh.query(probe)


# --------------------------------------------------------------------------- #
# SearchService: incremental parity with a from-scratch rebuild
# --------------------------------------------------------------------------- #
class TestIncrementalParity:
    def test_adds_and_removes_match_fresh_rebuild(
        self, serving_model, serving_tables, query_charts
    ):
        assert len(serving_tables) >= 8
        service = _make_service(serving_model)
        service.build(serving_tables[:5])

        # Interleave: add 3, remove 2 (one original, one just added), add 1 back.
        service.add_tables(serving_tables[5:8])
        service.remove_tables([serving_tables[1].table_id, serving_tables[6].table_id])
        service.add_tables([serving_tables[1]])

        final_ids = {t.table_id for t in serving_tables[:8]} - {serving_tables[6].table_id}
        final_tables = [t for t in serving_tables[:8] if t.table_id in final_ids]
        reference = _make_service(FCMModel(serving_model.config))
        reference.build(final_tables)

        assert sorted(service.table_ids) == sorted(t.table_id for t in final_tables)
        _assert_equivalent(service, reference, query_charts)

    def test_add_existing_table_is_idempotent(self, serving_model, serving_tables):
        service = _make_service(serving_model)
        service.build(serving_tables[:4])
        stats = service.add_tables(serving_tables[:4])
        assert stats.num_tables == 4
        assert sorted(service.table_ids) == sorted(t.table_id for t in serving_tables[:4])

    def test_remove_evicts_scorer_cache(self, serving_model, serving_tables):
        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        victim = serving_tables[0].table_id
        assert victim in service.scorer.indexed_table_ids
        assert service.remove_tables([victim]) == 1
        assert victim not in service.scorer.indexed_table_ids
        with pytest.raises(KeyError):
            service.scorer.encoded_table(victim)

    def test_query_fanout_matches_single_batch(
        self, serving_model, serving_tables, query_charts
    ):
        """A verifier scoring the candidates in three shards — what the
        worker pool does, here in-process — ranks like the single batch."""
        service = _make_service(serving_model)
        service.build(serving_tables[:7])
        processor = service.processor

        def fan_out(chart_input, ordered_ids):
            scores = {}
            for shard in split_shards(ordered_ids, 3):
                scores.update(
                    processor.scorer.score_encoded_batch(chart_input, shard)
                )
            return scores

        for chart in query_charts:
            for strategy in STRATEGIES:
                _assert_rankings_match(
                    processor.query(chart, k=5, strategy=strategy, verifier=fan_out),
                    processor.query(chart, k=5, strategy=strategy),
                )


# --------------------------------------------------------------------------- #
# Result cache + statistics
# --------------------------------------------------------------------------- #
class TestResultCacheAndStats:
    def test_warm_query_hits_cache_and_mutation_invalidates(
        self, serving_model, serving_tables, query_charts
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        chart = query_charts[0]

        cold = service.query(chart, k=3)
        warm = service.query(chart, k=3)
        assert warm is cold  # served from the cache, not recomputed
        stats = service.stats.per_strategy["hybrid"]
        assert stats.queries == 1 and stats.cache_hits == 1
        assert stats.mean_seconds > 0 and stats.mean_candidates > 0

        service.add_tables([serving_tables[5]])
        after_add = service.query(chart, k=3)
        assert after_add is not cold
        assert after_add.total_tables == cold.total_tables + 1
        assert service.stats.invalidations >= 1
        assert service.stats.tables_added == 1

    def test_equal_charts_from_different_objects_share_cache_entries(
        self, serving_model, serving_tables, small_records, tiny_fcm_config
    ):
        """Content-hash keys: re-rendering the same chart hits the caches."""
        record = small_records[0]

        def render():
            return render_chart_for_table(
                record.table,
                list(record.spec.y_columns),
                x_column=record.spec.x_column,
                spec=tiny_fcm_config.chart_spec,
            )

        chart_a, chart_b = render(), render()
        assert chart_a is not chart_b
        assert chart_a.fingerprint() == chart_b.fingerprint()

        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        cold = service.query(chart_a, k=3)
        warm = service.query(chart_b, k=3)  # different object, equal content
        assert warm is cold
        assert service.stats.per_strategy["hybrid"].cache_hits == 1
        # The scorer's query-prep LRU is content-keyed the same way: both
        # objects map to one entry.
        assert len(service.scorer._query_cache) == 1
        prepared_a = service.scorer.prepare_query(chart_a)
        prepared_b = service.scorer.prepare_query(chart_b)
        assert prepared_a is prepared_b

        # A genuinely different chart misses, and in-place mutation changes
        # the key (no stale entry can be served).
        other_record = small_records[1]
        other = render_chart_for_table(
            other_record.table,
            list(other_record.spec.y_columns),
            x_column=other_record.spec.x_column,
            spec=tiny_fcm_config.chart_spec,
        )
        assert other.fingerprint() != chart_a.fingerprint()
        mutated = render()
        mutated.image[0, 0] += 1.0
        assert mutated.fingerprint() != chart_a.fingerprint()

    @pytest.mark.parametrize("strategy", ["none", "interval", "lsh", "hybrid"])
    @pytest.mark.parametrize("prefilter", [False, True])
    def test_a_query_hashes_its_chart_once(
        self, serving_model, serving_tables, query_charts, monkeypatch, strategy, prefilter
    ):
        """Miss or hit, ``SearchService.query`` calls ``fingerprint()`` once —
        and every query hashes afresh, so a chart mutated between two calls
        can never be served the first call's answer."""
        service = _make_service(
            serving_model, quantized_prefilter=prefilter, prefilter_overscan=1
        )
        service.build(serving_tables)
        chart = query_charts[0]
        expected = service.query(chart, k=2, strategy=strategy).ranking
        service._result_cache.clear()
        service.scorer.clear_query_cache()

        calls = []
        original = type(chart).fingerprint

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(type(chart), "fingerprint", counting)
        cold = service.query(chart, k=2, strategy=strategy)
        assert len(calls) == 1
        assert cold.ranking == expected
        assert service.query(chart, k=2, strategy=strategy) is cold
        assert len(calls) == 2

    @pytest.mark.parametrize("strategy", ["none", "interval", "lsh", "hybrid"])
    @pytest.mark.parametrize("prefilter", [False, True])
    def test_a_query_encodes_its_chart_once(
        self, serving_model, serving_tables, query_charts, monkeypatch, strategy, prefilter
    ):
        """LSH lookup, the coarse pass and verification share one chart
        encoder forward; the stages called on their own (as the ledger's
        stage replay calls them) each still encode for themselves, and the
        ranking is theirs bit for bit."""
        service = _make_service(
            serving_model,
            quantized_prefilter=prefilter,
            prefilter_overscan=1,
            result_cache_size=0,
        )
        service.build(serving_tables)
        scorer, processor = service.scorer, service.processor
        chart, k = query_charts[0], 2

        calls = []
        original = type(serving_model).encode_chart

        def counting(self, chart_input):
            calls.append(1)
            return original(self, chart_input)

        monkeypatch.setattr(type(serving_model), "encode_chart", counting)
        served = service.query(chart, k=k, strategy=strategy)
        assert len(calls) == 1

        calls.clear()
        found = processor.candidates(chart, strategy)
        ordered = sorted(found or processor.table_ids)
        stages = 1 if strategy in ("lsh", "hybrid") else 0
        assert len(calls) == stages
        if prefilter and k < len(ordered):
            ordered = scorer.prefilter_ids(scorer.prepare_query(chart), ordered, k)
            stages += 1
        scores = scorer.score_chart_batch(chart, table_ids=ordered)
        assert len(calls) == stages + 1
        replayed = sorted(scores.items(), key=lambda item: item[1], reverse=True)[:k]
        assert served.ranking == replayed

    def test_cache_distinguishes_k_and_strategy(
        self, serving_model, serving_tables, query_charts
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        chart = query_charts[0]
        a = service.query(chart, k=2, strategy="none")
        b = service.query(chart, k=4, strategy="none")
        c = service.query(chart, k=2, strategy="interval")
        assert len(a.ranking) == 2 and len(b.ranking) == 4
        assert a is not b and a is not c

    def test_zero_cache_size_disables_caching(
        self, serving_model, serving_tables, query_charts
    ):
        service = _make_service(serving_model, result_cache_size=0)
        service.build(serving_tables[:4])
        chart = query_charts[0]
        first = service.query(chart, k=3)
        second = service.query(chart, k=3)
        assert first is not second
        _assert_rankings_match(first, second)


# --------------------------------------------------------------------------- #
# Persistence: snapshot round trip
# --------------------------------------------------------------------------- #
class TestSnapshot:
    def test_save_load_round_trip_preserves_everything(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:6])
        service.remove_tables([serving_tables[2].table_id])  # snapshot mid-life

        path = service.save_index(tmp_path / "index.npz")
        loaded = SearchService.load_index(serving_model, path)

        assert sorted(loaded.table_ids) == sorted(service.table_ids)
        _assert_equivalent(loaded, service, query_charts)
        # The restored scorer cache is byte-identical, no re-encoding needed.
        for table_id in service.table_ids:
            np.testing.assert_array_equal(
                loaded.scorer.encoded_table(table_id).representations,
                service.scorer.encoded_table(table_id).representations,
            )

    def test_loaded_service_supports_further_mutation(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        path = service.save_index(tmp_path / "index.npz")

        loaded = SearchService.load_index(serving_model, path)
        loaded.add_tables(serving_tables[5:7])
        loaded.remove_tables([serving_tables[0].table_id])

        reference = _make_service(FCMModel(serving_model.config))
        reference.build(serving_tables[1:7])
        _assert_equivalent(loaded, reference, query_charts)

    def test_embed_dim_mismatch_rejected(
        self, serving_model, serving_tables, tiny_fcm_config, tmp_path
    ):
        from dataclasses import replace

        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        path = service.save_index(tmp_path / "index.npz")
        other = FCMModel(replace(tiny_fcm_config, embed_dim=8, num_heads=2))
        with pytest.raises(ValueError, match="embed_dim"):
            SearchService.load_index(other, path)


# --------------------------------------------------------------------------- #
# Sharded multi-process builds
# --------------------------------------------------------------------------- #
class TestShardedBuild:
    def test_shard_tables_partitions_everything_once(self, serving_tables):
        shards = shard_tables(serving_tables, 3)
        flattened = [t.table_id for shard in shards for t in shard]
        assert flattened == [t.table_id for t in serving_tables]
        assert len(shards) == 3

    def test_sharded_encodings_match_single_process(self, serving_model, serving_tables):
        tables = serving_tables[:6]
        encoded, report = encode_tables_sharded(
            serving_model, tables, num_workers=2, timeout=SHARD_TIMEOUT_SECONDS
        )
        if report.fallback_reason is not None:
            pytest.skip(f"process pool unavailable: {report.fallback_reason}")
        assert report.num_workers == 2
        assert [tid for shard in report.shards for tid in shard] == [
            t.table_id for t in tables
        ]
        reference = FCMScorer(serving_model)
        reference.index_repository(tables)
        assert [e.table_id for e in encoded] == [t.table_id for t in tables]
        for item in encoded:  # bitwise: a table's encoding ignores its chunk-mates
            expected = reference.encoded_table(item.table_id)
            for name in ("representations", "column_embeddings"):
                ours, theirs = getattr(item, name), getattr(expected, name)
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
                assert ours.tobytes() == theirs.tobytes(), (item.table_id, name)
            assert item.column_names == expected.column_names
            assert item.column_ranges == expected.column_ranges

    def test_sharded_service_build_queries_match(
        self, serving_model, serving_tables, query_charts
    ):
        sharded = _make_service(serving_model, build_timeout=SHARD_TIMEOUT_SECONDS)
        sharded.build(serving_tables[:6], num_workers=2)
        if (
            sharded.last_shard_report is not None
            and sharded.last_shard_report.fallback_reason is not None
        ):
            pytest.skip(
                f"process pool unavailable: {sharded.last_shard_report.fallback_reason}"
            )
        reference = _make_service(FCMModel(serving_model.config))
        reference.build(serving_tables[:6])
        _assert_equivalent(sharded, reference, query_charts)

    def test_single_worker_skips_the_pool(self, serving_model, serving_tables):
        encoded, report = encode_tables_sharded(serving_model, serving_tables[:3], num_workers=1)
        assert report.num_workers == 1
        assert report.fallback_reason is None
        assert len(encoded) == 3


# --------------------------------------------------------------------------- #
# Process-level parallel query verification (QueryWorkerPool)
# --------------------------------------------------------------------------- #
def _pooled_service(model, **config_kwargs) -> SearchService:
    config_kwargs.setdefault("query_workers", 2)
    config_kwargs.setdefault("worker_timeout", SHARD_TIMEOUT_SECONDS)
    return _make_service(model, **config_kwargs)


def _skip_unless_pool_ran(service: SearchService) -> None:
    if service.worker_fallback_reason is not None:
        pytest.skip(f"query worker pool unavailable: {service.worker_fallback_reason}")


class TestQueryWorkerPool:
    def test_split_shards_partitions_everything_once(self):
        ids = [f"t{i}" for i in range(7)]
        shards = split_shards(ids, 3)
        assert [table_id for shard in shards for table_id in shard] == ids
        assert len(shards) == 3
        assert split_shards(ids, 99) == [[table_id] for table_id in ids]
        assert split_shards([], 3) == []

    def test_pool_requires_two_workers(self, serving_model):
        with pytest.raises(ValueError, match="num_workers"):
            QueryWorkerPool(serving_model, num_workers=1)

    def test_worker_pool_rankings_match_in_process(
        self, serving_model, serving_tables, query_charts
    ):
        """The acceptance bar: pool scores identical to in-process serving."""
        pooled = _pooled_service(serving_model)
        reference = _make_service(FCMModel(serving_model.config))
        try:
            pooled.build(serving_tables[:7])
            reference.build(serving_tables[:7])
            pooled.query(query_charts[0], k=5)  # spins the pool up lazily
            _skip_unless_pool_ran(pooled)
            for chart in query_charts:
                for strategy in STRATEGIES:
                    _assert_rankings_match(
                        pooled.query(chart, k=5, strategy=strategy),
                        reference.query(chart, k=5, strategy=strategy),
                    )
            assert pooled.worker_fallback_reason is None
            assert pooled.stats.worker_queries > 0
            assert pooled.stats.worker_fallbacks == 0
        finally:
            pooled.close()

    def test_shards_above_and_below_the_chunk_bound_match_in_process(
        self, serving_model, query_charts
    ):
        """One shard per worker: of 540 tables, two shards of 270 read the
        workers' index-wide exact packs; of 400, two shards of 200 are
        projected per call.  The in-process scan reads its index-wide pack
        both times.  All agree, and agree with the per-pair reference."""
        rng = np.random.default_rng(17)
        tables = []
        for i in range(540):
            rows = int(rng.integers(40, 120))
            columns = [Column("x", np.arange(rows, dtype=float), role="x")]
            for c in range(int(rng.integers(1, 4))):
                columns.append(
                    Column(f"y{c}", np.cumsum(rng.standard_normal(rows)), role="y")
                )
            tables.append(Table(f"shard{i:03d}", columns))
        chart = query_charts[0]
        tolerance = dtype_tol(1e-8, 5e-5)
        pooled = _pooled_service(serving_model, result_cache_size=0)
        reference = _make_service(
            FCMModel(serving_model.config), result_cache_size=0
        )
        try:
            pooled.build(tables)
            reference.build(tables)
            for num_tables in (540, 400):
                dropped = [t.table_id for t in tables[num_tables:]]
                pooled.remove_tables(dropped)
                reference.remove_tables(dropped)
                expected = dict(
                    reference.query(chart, k=num_tables, strategy="none").ranking
                )
                assert len(expected) == num_tables
                assert reference.scorer._exact_pack is not None
                per_pair = reference.scorer.score_chart(chart)
                served = dict(
                    pooled.query(chart, k=num_tables, strategy="none").ranking
                )
                _skip_unless_pool_ran(pooled)
                assert served.keys() == expected.keys()
                for table_id, score in served.items():
                    assert abs(score - expected[table_id]) <= tolerance
                    assert abs(score - per_pair[table_id]) <= tolerance
            assert pooled.stats.worker_queries == 2
            assert pooled.query_pool.stats.queries == 2
            assert pooled.scorer.exact_pack_builds == 0  # verified in the workers
        finally:
            pooled.close()

    def test_mutations_sync_to_workers(
        self, serving_model, serving_tables, query_charts
    ):
        """add/remove between queries ships only the diff, results stay exact."""
        pooled = _pooled_service(serving_model)
        reference = _make_service(FCMModel(serving_model.config))
        try:
            pooled.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            pooled.add_tables(serving_tables[5:8])
            pooled.remove_tables([serving_tables[1].table_id])
            final_tables = [
                t
                for t in serving_tables[:8]
                if t.table_id != serving_tables[1].table_id
            ]
            reference.build(final_tables)
            for chart in query_charts:
                for strategy in STRATEGIES:
                    _assert_rankings_match(
                        pooled.query(chart, k=5, strategy=strategy),
                        reference.query(chart, k=5, strategy=strategy),
                    )
            assert pooled.worker_fallback_reason is None
            pool_stats = pooled.query_pool.stats
            assert pool_stats.tables_synced == 8  # 5 initial + 3 added
            assert pool_stats.tables_evicted == 1
        finally:
            pooled.close()

    def test_reused_table_id_with_new_content_resyncs_to_workers(
        self, serving_model, serving_tables, query_charts
    ):
        """Remove + re-add under the same id must re-ship the new encoding.

        The id-level diff alone would call this 'no change'; the pool sync
        is content-aware via the removed-ids set, so workers cannot keep
        scoring the stale table.
        """
        victim = serving_tables[0]
        impostor = Table(victim.table_id, list(serving_tables[8].columns))
        pooled = _pooled_service(serving_model)
        reference = _make_service(FCMModel(serving_model.config))
        try:
            pooled.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            pooled.remove_tables([victim.table_id])
            pooled.add_tables([impostor])
            reference.build([impostor] + serving_tables[1:5])
            for chart in query_charts:
                _assert_rankings_match(
                    pooled.query(chart, k=5), reference.query(chart, k=5)
                )
            assert pooled.worker_fallback_reason is None
        finally:
            pooled.close()

    def test_pool_failure_falls_back_in_process_and_reset_reenables(
        self, serving_model, serving_tables, query_charts
    ):
        pooled = _pooled_service(serving_model)
        reference = _make_service(FCMModel(serving_model.config))
        try:
            pooled.build(serving_tables[:5])
            reference.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            # Sabotage the live pool behind the service's back: the next
            # uncached query hits dead workers, falls back in-process and
            # retires the pool — the query itself must still succeed.
            pooled.query_pool.close()
            fallback_result = pooled.query(query_charts[1], k=5)
            assert pooled.worker_fallback_reason is not None
            assert pooled.query_pool is None
            assert pooled.stats.worker_fallbacks == 1
            _assert_rankings_match(
                fallback_result, reference.query(query_charts[1], k=5)
            )

            # Sticky: further queries serve in-process without re-spawning.
            pooled.query(query_charts[2], k=5)
            assert pooled.stats.worker_fallbacks == 1

            # reset_query_pool() opts back in; a fresh pool serves again.
            worker_queries_before = pooled.stats.worker_queries
            pooled.reset_query_pool()
            retried = pooled.query(query_charts[0], k=7)  # new k -> uncached
            if pooled.worker_fallback_reason is None:
                assert pooled.stats.worker_queries == worker_queries_before + 1
            _assert_rankings_match(retried, reference.query(query_charts[0], k=7))
        finally:
            pooled.close()

    def test_fallback_kind_distinguishes_crash_from_close(
        self, serving_model, serving_tables, query_charts
    ):
        """`stats.worker_fallback_kind`: "failure" for crash-induced
        retirement, "closed" for the deliberate close() seal, None while
        the pool is usable (and after reset_query_pool)."""
        pooled = _pooled_service(serving_model)
        try:
            pooled.build(serving_tables[:4])
            assert pooled.stats.worker_fallback_kind is None
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            pooled.query_pool.close()  # sabotage → crash-style fallback
            pooled.query(query_charts[1], k=5)
            assert pooled.stats.worker_fallback_kind == "failure"
            assert pooled.worker_fallback_reason != CLOSED_FALLBACK_REASON

            pooled.reset_query_pool()
            assert pooled.stats.worker_fallback_kind is None
        finally:
            pooled.close()
        assert pooled.worker_fallback_reason == CLOSED_FALLBACK_REASON
        assert pooled.stats.worker_fallback_kind == "closed"

    def test_traced_pooled_query_stitches_worker_spans(
        self, serving_model, serving_tables, query_charts
    ):
        """End-to-end stitching: a traced query served through the pool
        carries worker-side span trees under its own trace id."""
        pooled = _pooled_service(serving_model, tracing=True)
        try:
            pooled.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            pooled.query(query_charts[1], k=5)  # pool already warm
            tree = pooled.last_trace
            assert tree is not None
            names = stage_names(tree)
            assert {"query", "cache", "candidates", "verify",
                    "scatter_gather", "merge"} <= names
            if pooled.stats.worker_queries and "worker" in names:
                workers = [
                    node
                    for node in _walk_tree(tree)
                    if node["name"] == "worker"
                ]
                assert workers
                for worker in workers:
                    assert worker["trace_id"] == tree["trace_id"]
                    assert "shard_score" in stage_names(worker)
        finally:
            pooled.close()


def _walk_tree(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk_tree(child)


# --------------------------------------------------------------------------- #
# Append-only snapshot segments + compaction
# --------------------------------------------------------------------------- #
class TestSnapshotSegments:
    def test_append_records_delta_and_load_replays(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:6])
        base = service.save_index(tmp_path / "index.npz")

        service.add_tables(serving_tables[6:8])
        segment = service.save_index(base, append=True)
        assert segment != base
        assert snapshot_segments(base) == [segment]

        loaded = SearchService.load_index(serving_model, base)
        assert sorted(loaded.table_ids) == sorted(service.table_ids)
        _assert_equivalent(loaded, service, query_charts)

    def test_empty_delta_append_writes_nothing(
        self, serving_model, serving_tables, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:4])
        base = service.save_index(tmp_path / "index.npz")

        assert service.save_index(base, append=True) == base
        assert snapshot_segments(base) == []

        # remove + re-add of the same table nets out to no recorded change.
        service.remove_tables([serving_tables[0].table_id])
        service.add_tables([serving_tables[0]])
        assert service.save_index(base, append=True) == base
        assert snapshot_segments(base) == []

    def test_reused_table_id_with_new_content_is_a_real_delta(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        """Content fingerprints make a same-id/different-content re-add a
        tombstone + re-add, not an empty delta that keeps the stale arrays."""
        victim = serving_tables[0]
        impostor = Table(victim.table_id, list(serving_tables[8].columns))
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        base = service.save_index(tmp_path / "index.npz")

        service.remove_tables([victim.table_id])
        service.add_tables([impostor])
        segment = service.save_index(base, append=True)
        assert segment != base  # a segment was actually written

        loaded = SearchService.load_index(serving_model, base)
        assert sorted(loaded.table_ids) == sorted(service.table_ids)
        _assert_equivalent(loaded, service, query_charts)
        np.testing.assert_array_equal(
            loaded.scorer.encoded_table(victim.table_id).representations,
            service.scorer.encoded_table(victim.table_id).representations,
        )

    def test_an_encoding_is_hashed_once_in_its_life(
        self, serving_model, serving_tables, tmp_path, monkeypatch
    ):
        """``save_index(append=True)`` diffs content hashes, and a hash is
        kept on its ``EncodedTable``: the base save pays for every table,
        each later append-snapshot only for what was encoded since."""
        import hashlib

        hashed = []
        sha1 = hashlib.sha1

        def counting():
            hashed.append(1)
            return sha1()

        monkeypatch.setattr(hashlib, "sha1", counting)
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        base = service.save_index(tmp_path / "index.npz")
        assert len(hashed) == 5
        assert service.save_index(base, append=True) == base  # empty delta
        assert len(hashed) == 5
        service.add_tables([serving_tables[5]])
        assert service.save_index(base, append=True) != base
        assert len(hashed) == 6
        service.add_tables([serving_tables[6]])
        assert service.save_index(base, append=True) != base
        assert len(hashed) == 7
        encoded = service.scorer.encoded_table(serving_tables[6].table_id)
        assert encoded.fingerprint() is encoded.fingerprint()

    def test_lsh_config_mismatched_append_rejected(
        self, serving_model, serving_tables, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        base = service.save_index(tmp_path / "index.npz")

        other = _make_service(
            FCMModel(serving_model.config),
            lsh_config=LSHConfig(num_bits=8, hamming_radius=1),
        )
        other.build(serving_tables[:4])
        with pytest.raises(ValueError, match="LSH configuration"):
            other.save_index(base, append=True)

    def test_append_requires_an_existing_base(
        self, serving_model, serving_tables, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        with pytest.raises(ValueError, match="existing base snapshot"):
            service.save_index(tmp_path / "missing.npz", append=True)

    def test_tombstone_replay_add_then_remove_then_append(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        base = service.save_index(tmp_path / "index.npz")

        # Segment 1: +2 tables, -1 base table, -1 just-added table.
        service.add_tables(serving_tables[5:7])
        service.remove_tables(
            [serving_tables[1].table_id, serving_tables[6].table_id]
        )
        first = service.save_index(base, append=True)
        # Segment 2: a further add, and a tombstone for a segment-1 table.
        service.add_tables(serving_tables[7:8])
        service.remove_tables([serving_tables[5].table_id])
        second = service.save_index(base, append=True)
        assert snapshot_segments(base) == [first, second]

        loaded = SearchService.load_index(serving_model, base)
        assert sorted(loaded.table_ids) == sorted(service.table_ids)
        _assert_equivalent(loaded, service, query_charts)

        reference = _make_service(FCMModel(serving_model.config))
        live_ids = set(service.table_ids)
        reference.build([t for t in serving_tables if t.table_id in live_ids])
        _assert_equivalent(loaded, reference, query_charts)

    def test_compaction_equivalence(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:5])
        base = service.save_index(tmp_path / "index.npz")
        service.add_tables(serving_tables[5:7])
        service.save_index(base, append=True)
        service.remove_tables([serving_tables[0].table_id])
        service.save_index(base, append=True)

        before = SearchService.load_index(serving_model, base)
        assert SearchService.compact_snapshot(base) == base  # the passthrough
        assert snapshot_segments(base) == []
        after = SearchService.load_index(serving_model, base)

        assert sorted(after.table_ids) == sorted(before.table_ids)
        _assert_equivalent(after, before, query_charts)
        for table_id in before.table_ids:
            np.testing.assert_array_equal(
                after.scorer.encoded_table(table_id).representations,
                before.scorer.encoded_table(table_id).representations,
            )
        # Compacting an already-compact snapshot is a no-op.
        assert compact_snapshot(base) == base

    def test_full_save_supersedes_segments(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:4])
        base = service.save_index(tmp_path / "index.npz")
        service.add_tables(serving_tables[4:6])
        service.save_index(base, append=True)

        assert service.save_index(base) == base  # full rewrite
        assert snapshot_segments(base) == []
        loaded = SearchService.load_index(serving_model, base)
        _assert_equivalent(loaded, service, query_charts)

    def test_dtype_mismatched_append_rejected(
        self, serving_model, serving_tables, tiny_fcm_config, tmp_path
    ):
        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        base = service.save_index(tmp_path / "index.npz")

        other = "float32" if active_dtype() == np.float64 else "float64"
        with using_dtype(other):
            other_service = _make_service(FCMModel(tiny_fcm_config))
            other_service.build(serving_tables[:4])
        with pytest.raises(ValueError, match="single-precision"):
            other_service.save_index(base, append=True)

    def test_dtype_mismatched_segment_rejected_at_load(
        self, serving_model, serving_tables, tmp_path
    ):
        from repro.serving.persistence import _write_archive

        service = _make_service(serving_model)
        service.build(serving_tables[:3])
        base = service.save_index(tmp_path / "index.npz")
        service.add_tables(serving_tables[3:4])
        segment = service.save_index(base, append=True)

        # Corrupt the lineage: flip the segment's recorded precision.
        meta, arrays = read_archive(segment)
        meta["dtype"] = "float32" if meta["dtype"] == "float64" else "float64"
        _write_archive(segment, meta, arrays)
        with pytest.raises(ValueError, match="single-precision"):
            SearchService.load_index(serving_model, base)
        # Appending over the corrupted lineage is refused the same way.
        service.add_tables(serving_tables[4:5])
        with pytest.raises(ValueError, match="single-precision"):
            service.save_index(base, append=True)


# --------------------------------------------------------------------------- #
# Zero-copy mmap-shared snapshots (ServingConfig.mmap_index)
# --------------------------------------------------------------------------- #
def _is_mmap_backed(array: np.ndarray) -> bool:
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


class TestMmapServing:
    """The mmap path must be invisible to queries and visible only in RSS.

    Parity here is stricter than elsewhere in the file: copy-loaded and
    mmap-loaded services read the *same* snapshot bytes, so their rankings
    must agree to 1e-8 under either ``REPRO_DTYPE`` profile — there is no
    re-encoding noise to forgive.
    """

    #: Same-bytes tolerance — NOT dtype-widened like ``_assert_rankings_match``.
    PARITY_TOL = 1e-8

    def _snapshot(self, model, tables, tmp_path):
        service = _make_service(model)
        service.build(tables)
        return service.save_index(tmp_path / "index.npz")

    def _assert_same_rankings(self, a, b):
        assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
        for (_, score_a), (_, score_b) in zip(a.ranking, b.ranking):
            assert abs(score_a - score_b) <= self.PARITY_TOL

    def test_mmap_load_matches_copy_load_in_process(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        path = self._snapshot(serving_model, serving_tables[:6], tmp_path)
        copy = SearchService.load_index(
            serving_model, path, ServingConfig(lsh_config=LSHConfig(num_bits=6))
        )
        mapped = SearchService.load_index(
            serving_model,
            path,
            ServingConfig(lsh_config=LSHConfig(num_bits=6), mmap_index=True),
        )
        assert not copy.mmap_active
        assert mapped.mmap_active
        for table_id in mapped.table_ids:
            encoded = mapped.scorer.encoded_table(table_id)
            assert _is_mmap_backed(encoded.representations)
            assert not encoded.representations.flags.writeable
            assert not _is_mmap_backed(
                copy.scorer.encoded_table(table_id).representations
            )
        for chart in query_charts:
            for strategy in STRATEGIES:
                self._assert_same_rankings(
                    mapped.query(chart, k=5, strategy=strategy),
                    copy.query(chart, k=5, strategy=strategy),
                )

    def test_mmap_workers_preload_the_snapshot_and_match_copy_pool(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        """Workers open the mapping themselves: first query ships nothing."""
        path = self._snapshot(serving_model, serving_tables[:8], tmp_path)
        base_config = dict(
            lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
            query_workers=2,
            worker_timeout=SHARD_TIMEOUT_SECONDS,
        )
        copy = SearchService.load_index(
            serving_model, path, ServingConfig(**base_config)
        )
        mapped = SearchService.load_index(
            serving_model, path, ServingConfig(mmap_index=True, **base_config)
        )
        try:
            for chart in query_charts:
                for strategy in STRATEGIES:
                    self._assert_same_rankings(
                        mapped.query(chart, k=5, strategy=strategy),
                        copy.query(chart, k=5, strategy=strategy),
                    )
            _skip_unless_pool_ran(mapped)
            _skip_unless_pool_ran(copy)
            # The copy pool pickled every table through the pipe; the mmap
            # pool shipped none — its workers mapped the snapshot at start.
            assert sorted(mapped.query_pool.preloaded_table_ids) == sorted(
                mapped.table_ids
            )
            assert mapped.query_pool.stats.tables_synced == 0
            assert copy.query_pool.stats.tables_synced == len(copy.table_ids)
            assert len(mapped.query_pool.worker_pids) == 2
        finally:
            mapped.close()
            copy.close()

    def test_mutations_after_mmap_load_stay_exact(
        self, serving_model, serving_tables, query_charts, tmp_path
    ):
        """Post-load add/remove rides the normal sync path on top of mmap.

        The nastiest case: a snapshot table is removed and its id re-added
        with different content *before* the pool ever starts.  Workers
        preload the stale snapshot version, so the service must re-ship
        exactly the dirty table (and only it) on top of the mapping.
        """
        victim = serving_tables[0]
        impostor = Table(victim.table_id, list(serving_tables[8].columns))
        path = self._snapshot(serving_model, serving_tables[:5], tmp_path)
        mapped = SearchService.load_index(
            serving_model,
            path,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
                query_workers=2,
                worker_timeout=SHARD_TIMEOUT_SECONDS,
                mmap_index=True,
            ),
        )
        reference = _make_service(FCMModel(serving_model.config))
        try:
            mapped.remove_tables([victim.table_id])
            mapped.add_tables([impostor])
            reference.build([impostor] + serving_tables[1:5])
            for chart in query_charts:
                _assert_rankings_match(
                    mapped.query(chart, k=5), reference.query(chart, k=5)
                )
            _skip_unless_pool_ran(mapped)
            # Only the re-added table crossed the pipe; the other four were
            # served straight from the workers' own mapping.
            assert mapped.query_pool.stats.tables_synced == 1
        finally:
            mapped.close()

    def test_saved_files_do_not_depend_on_mmap_index(
        self, serving_model, serving_tables, tmp_path
    ):
        """One format: the config no longer picks what ``save_index`` writes."""
        file_sets = []
        for name, mmap_index in (("plain", False), ("mapped", True)):
            service = _make_service(serving_model, mmap_index=mmap_index)
            service.build(serving_tables[:4])
            path = service.save_index(tmp_path / name / "index.npz")
            service.add_tables(serving_tables[4:5])
            service.save_index(path, append=True)
            files = {}
            for file in path.parent.iterdir():
                if file.suffix == ".npz":  # zip headers carry a timestamp
                    with np.load(file) as archive:
                        files[file.name] = {
                            member: archive[member].tobytes()
                            for member in archive.files
                        }
                else:
                    files[file.name] = file.read_bytes()
            file_sets.append(files)
        assert len(file_sets[0]) == 4  # base + two sidecars + one segment
        assert file_sets[0] == file_sets[1]

    def test_vestigial_layout_argument(self, serving_model, serving_tables, tmp_path):
        """``"v2"`` is a no-op kept for the frozen ledger; the rest is gone."""
        service = _make_service(serving_model)
        service.build(serving_tables[:2])
        service.save_index(tmp_path / "index.npz", False, "v2")
        for layout in ("v1", "v3", 2):
            with pytest.raises(ValueError, match="layout"):
                service.save_index(tmp_path / "index.npz", False, layout)

    def test_corrupt_snapshot_surfaces_snapshot_error(
        self, serving_model, serving_tables, tmp_path
    ):
        path = self._snapshot(serving_model, serving_tables[:3], tmp_path)
        sidecar = next(path.parent.glob(path.stem + ".g*.reps.npy"))
        sidecar.unlink()
        with pytest.raises(SnapshotError, match=sidecar.name):
            SearchService.load_index(
                serving_model,
                path,
                ServingConfig(lsh_config=LSHConfig(num_bits=6), mmap_index=True),
            )


# --------------------------------------------------------------------------- #
# Failure-path hardening: finite timeouts, explicit closed state, shard edges
# --------------------------------------------------------------------------- #
class _ScriptedConn:
    """A fake worker pipe: records sends, answers ``score`` from a table.

    Lets the scatter/gather protocol be exercised without spawning processes
    (this container cannot), which is exactly what the empty-shard edge
    needs: the assertion is about what goes *over the pipe*.
    """

    def __init__(self):
        self.sent = []
        self._replies = []

    def send(self, message):
        self.sent.append(message)
        if message[0] == "score":
            _, _, shard, _trace_id, *_options = message
            self._replies.append(("ok", ({tid: 0.0 for tid in shard}, None)))

    def poll(self, timeout=None):
        return bool(self._replies)

    def recv(self):
        return self._replies.pop(0)

    def close(self):
        pass


class TestFailurePathHardening:
    def test_worker_timeout_defaults_finite(self):
        """The regression under test: a wedged worker must never be able to
        block a query forever, so the default guard is finite, not None."""
        config = ServingConfig()
        assert config.worker_timeout == 30.0
        assert ServingConfig(worker_timeout=None).worker_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_timeout": 0.0},
            {"worker_timeout": -5.0},
            {"build_timeout": 0.0},
            {"build_timeout": -1.0},
        ],
    )
    def test_nonpositive_guards_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_split_shards_rejects_nonpositive_counts(self):
        for bad in (0, -1, -99):
            with pytest.raises(ValueError, match="num_shards"):
                split_shards(["a", "b"], bad)

    def test_split_shards_never_produces_empty_shards(self):
        """Fewer candidates than workers: singleton shards, nothing empty."""
        for num_ids in (1, 2, 3, 5, 8):
            ids = [f"t{i}" for i in range(num_ids)]
            for num_shards in range(1, 10):
                shards = split_shards(ids, num_shards)
                assert [tid for shard in shards for tid in shard] == ids
                assert all(shard for shard in shards)
                assert len(shards) == min(num_ids, num_shards)
        assert split_shards([], 4) == []

    def test_pool_score_filters_empty_shards_before_the_pipe(
        self, serving_model
    ):
        pool = QueryWorkerPool(serving_model, num_workers=2)
        conns = [_ScriptedConn(), _ScriptedConn()]
        pool._connections = list(conns)
        pool._processes = [object(), object()]  # satisfies _require_started
        try:
            scores = pool.score(None, [[], ["a", "b"], []], timeout=1.0)
            assert scores == {"a": 0.0, "b": 0.0}
            messages = [m for conn in conns for m in conn.sent]
            assert messages == [("score", None, ["a", "b"], None)]

            # All-empty scatter: answered locally, nothing sent at all.
            assert pool.score(None, [[], []], timeout=1.0) == {}
            assert sum(len(c.sent) for c in conns) == 1
        finally:
            pool._connections = []
            pool._processes = []

    def test_stalled_worker_times_out_and_falls_back(
        self, serving_model, serving_tables, query_charts
    ):
        """A wedged worker costs one ``worker_timeout``, never a hang: the
        query re-verifies in-process and the pool is retired (sticky)."""
        import multiprocessing

        pooled = _pooled_service(serving_model, worker_timeout=1.0)
        reference = _make_service(FCMModel(serving_model.config))
        stall_parent, stall_child = multiprocessing.Pipe()
        try:
            pooled.build(serving_tables[:5])
            reference.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            _skip_unless_pool_ran(pooled)

            # Wedge worker 0: its pipe is swapped for one nobody answers.
            real_conn = pooled.query_pool._connections[0]
            pooled.query_pool._connections[0] = stall_parent
            start = __import__("time").perf_counter()
            result = pooled.query(query_charts[1], k=5)  # uncached
            elapsed = __import__("time").perf_counter() - start
            real_conn.close()

            assert elapsed < 20.0  # 1s guard + in-process re-verify, no hang
            assert pooled.worker_fallback_reason is not None
            assert "timed out" in pooled.worker_fallback_reason
            assert pooled.query_pool is None
            assert pooled.stats.worker_fallbacks == 1
            _assert_rankings_match(result, reference.query(query_charts[1], k=5))
        finally:
            stall_child.close()
            pooled.close()

    def test_close_then_query_serves_in_process_without_respawn(
        self, serving_model, serving_tables, query_charts
    ):
        """The regression under test: ``close()`` used to leave the service
        armed, so the next query silently respawned a whole worker pool."""
        pooled = _pooled_service(serving_model)
        reference = _make_service(FCMModel(serving_model.config))
        pooled.build(serving_tables[:5])
        reference.build(serving_tables[:5])
        pooled.query(query_charts[0], k=5)
        pool_ran = pooled.worker_fallback_reason is None

        pooled.close()
        assert pooled.query_pool is None
        if pool_ran:
            assert pooled.worker_fallback_reason == CLOSED_FALLBACK_REASON
        fallbacks_before = pooled.stats.worker_fallbacks

        result = pooled.query(query_charts[1], k=5)  # uncached
        assert pooled.query_pool is None  # served in-process, no respawn
        # Closing is not a failure: the fallback counter must not move.
        assert pooled.stats.worker_fallbacks == fallbacks_before
        _assert_rankings_match(result, reference.query(query_charts[1], k=5))

        # reset_query_pool() is the explicit opt back in.
        pooled.reset_query_pool()
        assert pooled.worker_fallback_reason is None
        try:
            retried = pooled.query(query_charts[2], k=5)
            _assert_rankings_match(
                retried, reference.query(query_charts[2], k=5)
            )
        finally:
            pooled.close()

    def test_context_manager_exit_seals_the_service(
        self, serving_model, serving_tables, query_charts
    ):
        with _pooled_service(serving_model) as pooled:
            pooled.build(serving_tables[:5])
            pooled.query(query_charts[0], k=5)
            pool_ran = pooled.worker_fallback_reason is None
        if pool_ran:
            assert pooled.worker_fallback_reason == CLOSED_FALLBACK_REASON
        assert pooled.query(query_charts[1], k=5).ranking
        assert pooled.query_pool is None

    def test_close_without_pool_config_records_no_reason(
        self, serving_model, serving_tables, query_charts
    ):
        """An in-process service's close() is a pure no-op: nothing to seal,
        so no sticky reason appears in /metrics-style introspection."""
        service = _make_service(serving_model)
        service.build(serving_tables[:4])
        service.close()
        assert service.worker_fallback_reason is None
        assert service.query(query_charts[0], k=3).ranking
