"""Streaming ingest + standing subscriptions: parity with a full rebuild.

The tentpole property: a service that grew through any interleaving of
``append_rows`` / ``add_tables`` / ``remove_tables`` must be
indistinguishable — interval set, LSH buckets, candidate sets, query
rankings — from a fresh service that registered the same statics and
replayed each stream's full history in a single append.  Window
partitioning is a pure function of the row count, so the incremental and
the replayed stream encode byte-identical segments; everything else
follows.

On top of the parity core: subscription delivery semantics (fires within
one ingest batch, bounded queues, callback isolation), fault injection
(raising callbacks, worker death mid-ingest, snapshots under live
subscriptions) and the observability surface (trace spans + ingest
metrics).
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.charts import render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMModel, FCMScorer
from repro.index import LSHConfig
from repro.serving import (
    STREAM_SEGMENT_SEP,
    SearchService,
    ServingConfig,
    StreamingConfig,
    append_stream_rows,
    segment_table_id,
)

from conftest import (
    active_dtype,
    assert_exact_pack_is_a_rebuild,
    copy_scorer,
    dtype_tol,
    scorer_count,
)

#: Streaming window used throughout: small enough that a handful of rows
#: spans several segments.
WINDOW = 32
STRATEGIES = ("none", "interval", "lsh", "hybrid")
SHARD_TIMEOUT_SECONDS = 120.0


@pytest.fixture(scope="module")
def stream_model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


@pytest.fixture(scope="module")
def static_tables(small_records):
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
    config_kwargs.setdefault("streaming", StreamingConfig(segment_rows=WINDOW))
    return SearchService(model, ServingConfig(**config_kwargs))


def _batch(rng, size: int, start: int) -> dict:
    return {
        "x": np.arange(start, start + size, dtype=float),
        "y": np.cumsum(rng.normal(0.0, 1.0, size)) + 10.0 * rng.standard_normal(),
    }


def _append(service, stream_id: str, rows: dict, histories: dict):
    created = stream_id not in histories
    result = service.append_rows(
        stream_id, rows, roles={"x": "x"} if created else None
    )
    histories.setdefault(stream_id, []).append(rows)
    return result


def _replay_service(model, tables, histories) -> SearchService:
    """The parity reference: statics + each stream's history in ONE append."""
    reference = _make_service(model)
    reference.build(list(tables))
    for stream_id, batches in histories.items():
        full = {
            name: np.concatenate([rows[name] for rows in batches])
            for name in batches[0]
        }
        reference.append_rows(stream_id, full, roles={"x": "x"})
    return reference


def _assert_rankings_match(a, b, tolerance=None):
    if tolerance is None:
        tolerance = dtype_tol(1e-8, 5e-5)
    if active_dtype() == np.float64:
        assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
        for (_, score_a), (_, score_b) in zip(a.ranking, b.ranking):
            assert abs(score_a - score_b) <= tolerance
        return
    scores_a, scores_b = dict(a.ranking), dict(b.ranking)
    for tid in set(scores_a) & set(scores_b):
        assert abs(scores_a[tid] - scores_b[tid]) <= tolerance
    for (ta, score_a), (tb, score_b) in zip(a.ranking, b.ranking):
        if ta != tb:
            assert abs(score_a - score_b) <= tolerance, (ta, tb)


def _interval_set(tree):
    return {(iv.low, iv.high, iv.table_id, iv.column_name) for iv in tree.intervals}


def _assert_pack_matches_fresh_scorer(service, chart):
    """The index-wide exact pack of a mutated service is maintained, not
    rebuilt, and answers like the pack of a new scorer handed the same
    encodings in another order — bitwise —
    like a transient pack of the same entries to the last bit (the head's
    GEMM blocks rows by batch size) and like the graphed path within the
    dtype tolerance.  ``batch_size=1`` makes any two tables a multi-chunk
    scan."""
    scorer = service.scorer
    ids = sorted(service.table_ids)
    if len(ids) < 2:
        return
    packed = scorer.score_chart_batch(chart, table_ids=ids, batch_size=1)
    # Built once, then maintained through every write since: never dropped,
    # never rebuilt, and still the pack a scorer with no history builds.
    assert scorer_count(scorer, "exact_pack_builds") == 1
    assert_exact_pack_is_a_rebuild(scorer, scorer.generation.packs.exact)
    fresh = copy_scorer(scorer, reversed(list(scorer.generation.encoded)))
    assert packed == fresh.score_chart_batch(chart, table_ids=ids, batch_size=1)
    builds = scorer_count(scorer, "exact_pack_builds")
    transient = scorer.score_chart_batch(chart, table_ids=ids, batch_size=None)
    assert scorer_count(scorer, "exact_pack_builds") == builds
    graphed = scorer.score_chart_batch(chart, table_ids=ids, fused=False)
    for table_id in ids:
        assert abs(packed[table_id] - transient[table_id]) <= dtype_tol(1e-12, 5e-5)
        assert abs(packed[table_id] - graphed[table_id]) <= dtype_tol(1e-8, 5e-5)


def _assert_stream_equivalent(service, reference, charts):
    assert sorted(service.table_ids) == sorted(reference.table_ids)
    assert service.scorer.streams == reference.scorer.streams
    assert _interval_set(service.processor.generation.intervals) == _interval_set(
        reference.processor.generation.intervals
    )
    assert service.processor.lsh.buckets == reference.processor.lsh.buckets
    assert (
        service.processor.lsh.export_codes()
        == reference.processor.lsh.export_codes()
    )
    for parent, segments in service.scorer.streams.items():
        for seg_id in segments:
            ours = service.scorer.encoded_table(seg_id)
            theirs = reference.scorer.encoded_table(seg_id)
            assert np.array_equal(ours.representations, theirs.representations)
    for chart in charts:
        for strategy in STRATEGIES:
            assert service.processor.candidates(chart, strategy) == (
                reference.processor.candidates(chart, strategy)
            )
            _assert_rankings_match(
                service.query(chart, k=5, strategy=strategy),
                reference.query(chart, k=5, strategy=strategy),
            )


def _pattern_chart(model_config, rows: dict):
    table = Table(
        "pattern-query",
        [
            Column("x", np.asarray(rows["x"], dtype=float), role="x"),
            Column("y", np.asarray(rows["y"], dtype=float), role="y"),
        ],
    )
    return render_chart_for_table(
        table, ["y"], x_column="x", spec=model_config.chart_spec
    )


def _preview_segment_score(model, chart, rows: dict, lo: int, hi: int) -> float:
    """Score the future segment [lo, hi) exactly as ingest will encode it."""
    preview = FCMScorer(model)
    preview.index_table(
        Table(
            "preview-seg",
            [
                Column("x", np.asarray(rows["x"], dtype=float)[lo:hi], role="x"),
                Column("y", np.asarray(rows["y"], dtype=float)[lo:hi], role="y"),
            ],
        )
    )
    chart_input = preview.prepare_query(chart)
    return preview.score_encoded_batch(chart_input, ["preview-seg"])["preview-seg"]


# --------------------------------------------------------------------------- #
# append_rows basics: windowing, validation, eviction
# --------------------------------------------------------------------------- #
class TestAppendRows:
    def test_append_creates_stream_and_partitions_into_windows(
        self, stream_model, static_tables
    ):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        rng = np.random.default_rng(0)
        result = service.append_rows("live", _batch(rng, 80, 0), roles={"x": "x"})
        assert result.created
        assert result.total_rows == 80
        assert result.segments_total == 3  # 32 + 32 + 16-row tail window
        assert result.dirty_segments == [
            segment_table_id("live", 0),
            segment_table_id("live", 1),
            segment_table_id("live", 2),
        ]
        assert "live" in service.table_ids
        assert service.stats.rows_appended == 80
        assert service.stats.append_batches == 1

    def test_tail_append_reencodes_strict_subset(self, stream_model, static_tables):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        rng = np.random.default_rng(1)
        service.append_rows("live", _batch(rng, 80, 0), roles={"x": "x"})
        result = service.append_rows("live", _batch(rng, 10, 80))
        # Rows 80..90 touch only window 2: sealed windows never re-encode.
        assert result.dirty_segments == [segment_table_id("live", 2)]
        assert result.segments_total == 3
        assert result.reencode_fraction < 1.0
        assert result.reencode_fraction == pytest.approx(1.0 / 3.0)

    def test_segment_ids_hidden_from_rankings_parent_visible(
        self, stream_model, static_tables, query_charts
    ):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        rng = np.random.default_rng(2)
        service.append_rows("live", _batch(rng, 70, 0), roles={"x": "x"})
        for strategy in STRATEGIES:
            ranked_ids = [
                t for t, _ in service.query(query_charts[0], k=10, strategy=strategy).ranking
            ]
            # Pruning strategies may drop the stream; none/interval rank it.
            if strategy in ("none", "interval"):
                assert "live" in ranked_ids
            assert not any(STREAM_SEGMENT_SEP in t for t in ranked_ids)

    def test_append_to_static_table_rejected(self, stream_model, static_tables):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        taken = static_tables[0].table_id
        with pytest.raises(ValueError, match="static"):
            service.append_rows(taken, _batch(np.random.default_rng(3), 8, 0))

    def test_invalid_payloads_rejected_before_mutation(
        self, stream_model, static_tables
    ):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        rng = np.random.default_rng(4)
        service.append_rows("live", _batch(rng, 40, 0), roles={"x": "x"})
        before = service.processor.generation.streams["live"].state["total_rows"]
        bad_length = {"x": np.arange(5.0), "y": np.arange(4.0)}
        with pytest.raises(ValueError):
            service.append_rows("live", bad_length)
        with pytest.raises(ValueError):
            service.append_rows("live", {"x": np.arange(5.0), "z": np.arange(5.0)})
        with pytest.raises(ValueError):
            service.append_rows(
                "live", {"x": np.arange(3.0), "y": np.array([1.0, np.nan, 2.0])}
            )
        with pytest.raises(ValueError):
            service.append_rows(f"bad{STREAM_SEGMENT_SEP}id", _batch(rng, 8, 0))
        assert service.processor.generation.streams["live"].state["total_rows"] == before

    def test_a_table_under_a_segment_id_is_not_added(self, stream_model, static_tables):
        """A window segment is an entry of the index: the service refuses a
        table under its id, and the processor's writer skips it like any
        held id — no interval row, no code, no count either way."""
        service = _make_service(stream_model)
        service.build(static_tables[:2])
        service.append_rows("live", _batch(np.random.default_rng(6), 40, 0), roles={"x": "x"})
        generation = service.processor.generation
        intervals = generation.intervals.intervals
        codes = service.processor.lsh.export_codes()
        impostor = Table(segment_table_id("live", 0), [Column("y", np.ones(40))])
        with pytest.raises(ValueError, match="stream windows"):
            service.add_tables([impostor])
        assert service.processor.generation is generation
        stats = service.processor.add_tables([impostor])
        assert service.processor.generation.intervals.intervals == intervals
        assert service.processor.lsh.export_codes() == codes
        assert stats.added == [] and service.stats.tables_added == 1  # the stream

    def test_a_table_id_shaped_like_a_window_is_refused(self, stream_model, static_tables):
        """A static table under ``<stream>::seg-NNNNNN`` used to be accepted,
        and the stream's first append then took its encoding over as the
        window and dropped the static id.  Build and add refuse such an id
        before any state changes, and the stream starts from its own rows."""
        service = _make_service(stream_model)
        lookalike = Table(segment_table_id("feed", 0), list(static_tables[0].columns))
        with pytest.raises(ValueError, match="stream windows"):
            service.build([static_tables[1], lookalike])
        assert service.table_ids == []
        service.build(static_tables[1:3])
        generation = service.processor.generation
        with pytest.raises(ValueError, match="stream windows"):
            service.add_tables([static_tables[3], lookalike])
        assert service.processor.generation is generation
        assert service.stats.tables_added == 0
        histories: dict = {}
        _append(service, "feed", _batch(np.random.default_rng(8), 40, 0), histories)
        reference = _replay_service(FCMModel(stream_model.config), static_tables[1:3], histories)
        window = segment_table_id("feed", 0)
        assert sorted(service.table_ids) == sorted(reference.table_ids)
        ours, theirs = service.scorer.encoded_table(window), reference.scorer.encoded_table(window)
        assert ours.representations.tobytes() == theirs.representations.tobytes()

    def test_remove_stream_cleans_segments_everywhere(
        self, stream_model, static_tables, query_charts
    ):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        rng = np.random.default_rng(5)
        service.append_rows("live", _batch(rng, 70, 0), roles={"x": "x"})
        seg_ids = list(service.scorer.streams["live"])
        service.remove_tables(["live"])
        assert "live" not in service.table_ids
        assert service.scorer.streams == {}
        tree_ids = {iv.table_id for iv in service.processor.generation.intervals.intervals}
        for seg_id in seg_ids:
            assert seg_id not in tree_ids
            with pytest.raises(KeyError):
                service.scorer.encoded_table(seg_id)
        reference = _make_service(FCMModel(stream_model.config))
        reference.build(static_tables[:3])
        _assert_stream_equivalent(service, reference, query_charts[:1])


# --------------------------------------------------------------------------- #
# Parity: randomized interleavings vs from-scratch replay
# --------------------------------------------------------------------------- #
class TestStreamingParity:
    def test_deterministic_interleaving_50_mutations(
        self, stream_model, static_tables, query_charts
    ):
        """>= 50 mutations mixing appends, adds, removes and queries; the
        rankings must match a from-scratch rebuild at every step."""
        rng = np.random.default_rng(1234)
        service = _make_service(stream_model)
        service.build(static_tables[:4])
        live_tables = {t.table_id: t for t in static_tables[:4]}
        pool = list(static_tables[4:])
        histories: dict = {}
        stream_ids = ["stream-a", "stream-b", "stream-c"]
        mutations = 0
        step = 0
        while mutations < 50:
            step += 1
            roll = rng.random()
            if roll < 0.55:
                stream_id = stream_ids[int(rng.integers(len(stream_ids)))]
                start = sum(
                    rows["x"].size for rows in histories.get(stream_id, [])
                )
                result = _append(
                    service,
                    stream_id,
                    _batch(rng, int(rng.integers(5, 50)), start),
                    histories,
                )
                assert result.total_rows == start + result.rows_appended
                mutations += 1
            elif roll < 0.75 and pool:
                table = pool.pop()
                service.add_tables([table])
                live_tables[table.table_id] = table
                mutations += 1
            elif roll < 0.9 and (len(live_tables) > 2 or histories):
                removable = list(live_tables) + list(histories)
                victim = removable[int(rng.integers(len(removable)))]
                service.remove_tables([victim])
                live_tables.pop(victim, None)
                histories.pop(victim, None)
                mutations += 1
            reference = _replay_service(
                FCMModel(stream_model.config), live_tables.values(), histories
            )
            chart = query_charts[step % len(query_charts)]
            strategy = STRATEGIES[step % len(STRATEGIES)]
            _assert_rankings_match(
                service.query(chart, k=5, strategy=strategy),
                reference.query(chart, k=5, strategy=strategy),
            )
            if mutations % 10 == 0:
                _assert_stream_equivalent(service, reference, query_charts[:1])
        assert mutations >= 50
        reference = _replay_service(
            FCMModel(stream_model.config), live_tables.values(), histories
        )
        _assert_stream_equivalent(service, reference, query_charts)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["append", "add", "remove"]),
                st.integers(min_value=0, max_value=2 ** 31 - 1),
            ),
            min_size=3,
            max_size=8,
        )
    )
    def test_hypothesis_interleavings_match_replay(
        self, stream_model, static_tables, query_charts, ops
    ):
        service = _make_service(stream_model)
        service.build(static_tables[:3])
        live_tables = {t.table_id: t for t in static_tables[:3]}
        pool = list(static_tables[3:8])
        histories: dict = {}
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            if op == "append":
                stream_id = ["s0", "s1"][seed % 2]
                start = sum(
                    rows["x"].size for rows in histories.get(stream_id, [])
                )
                _append(
                    service, stream_id, _batch(rng, 5 + seed % 45, start), histories
                )
            elif op == "add" and pool:
                table = pool.pop()
                service.add_tables([table])
                live_tables[table.table_id] = table
            elif op == "remove":
                removable = sorted(live_tables) + sorted(histories)
                if len(removable) <= 1:
                    continue
                victim = removable[seed % len(removable)]
                service.remove_tables([victim])
                live_tables.pop(victim, None)
                histories.pop(victim, None)
            chart = query_charts[seed % len(query_charts)]
            reference = _replay_service(
                FCMModel(stream_model.config), live_tables.values(), histories
            )
            _assert_rankings_match(
                service.query(chart, k=5), reference.query(chart, k=5)
            )
            _assert_pack_matches_fresh_scorer(service, chart)
        reference = _replay_service(
            FCMModel(stream_model.config), live_tables.values(), histories
        )
        _assert_stream_equivalent(service, reference, query_charts[:2])

    def test_incremental_segments_byte_identical_to_replay(
        self, stream_model, static_tables
    ):
        """Not just score parity: the composed parent and every sealed
        segment encode to the same bytes as a single-shot replay."""
        rng = np.random.default_rng(7)
        service = _make_service(stream_model)
        service.build(static_tables[:2])
        histories: dict = {}
        for size in (40, 25, 33, 6):
            start = sum(rows["x"].size for rows in histories.get("live", []))
            _append(service, "live", _batch(rng, size, start), histories)
        reference = _replay_service(
            FCMModel(stream_model.config), static_tables[:2], histories
        )
        for seg_id in service.scorer.streams["live"]:
            ours = service.scorer.encoded_table(seg_id)
            theirs = reference.scorer.encoded_table(seg_id)
            assert np.array_equal(ours.representations, theirs.representations)
            assert np.array_equal(ours.column_embeddings, theirs.column_embeddings)
        composed_ours = service.scorer.encoded_table("live")
        composed_theirs = reference.scorer.encoded_table("live")
        assert np.array_equal(
            composed_ours.representations, composed_theirs.representations
        )


# --------------------------------------------------------------------------- #
# Worker pool: a pool per generation across appends, a worker killed
# --------------------------------------------------------------------------- #
class TestStreamingWorkerPool:
    def _pooled(self, model, **kw):
        kw.setdefault("query_workers", 2)
        kw.setdefault("worker_timeout", SHARD_TIMEOUT_SECONDS)
        return _make_service(model, **kw)

    def _skip_unless_pool_ran(self, service):
        if service.worker_fallback_reason is not None:
            pytest.skip(
                f"query worker pool unavailable: {service.worker_fallback_reason}"
            )

    def test_appends_replace_the_pool_and_match_replay(
        self, stream_model, static_tables, query_charts
    ):
        pooled = self._pooled(stream_model)
        histories: dict = {}
        try:
            pooled.build(static_tables[:5])
            pooled.query(query_charts[0], k=5)
            self._skip_unless_pool_ran(pooled)
            rng = np.random.default_rng(11)
            for size in (40, 30, 20):
                start = sum(rows["x"].size for rows in histories.get("live", []))
                _append(pooled, "live", _batch(rng, size, start), histories)
            reference = _replay_service(
                FCMModel(stream_model.config), static_tables[:5], histories
            )
            for chart in query_charts:
                for strategy in STRATEGIES:
                    _assert_rankings_match(
                        pooled.query(chart, k=5, strategy=strategy),
                        reference.query(chart, k=5, strategy=strategy),
                    )
            assert pooled.worker_fallback_reason is None
            assert pooled.stats.worker_fallbacks == 0
            assert pooled.query_pool.number == pooled.processor.generation.number
        finally:
            pooled.close()

    def test_worker_death_falls_back_and_stays_serving(
        self, stream_model, static_tables, query_charts
    ):
        pooled = self._pooled(stream_model)
        histories: dict = {}
        try:
            pooled.build(static_tables[:4])
            rng = np.random.default_rng(13)
            _append(pooled, "live", _batch(rng, 40, 0), histories)
            _append(pooled, "live", _batch(rng, 20, 40), histories)
            pooled.query(query_charts[0], k=5)
            self._skip_unless_pool_ran(pooled)
            # Kill a worker with no write before the next query: the pool
            # holds the query's generation, so the scatter hits the dead
            # pipe, the query falls back in-process and still answers exactly.
            os.kill(pooled.query_pool.worker_pids[0], signal.SIGKILL)
            reference = _replay_service(
                FCMModel(stream_model.config), static_tables[:4], histories
            )
            result = pooled.query(query_charts[1], k=5)
            _assert_rankings_match(result, reference.query(query_charts[1], k=5))
            assert pooled.worker_fallback_reason is not None
            assert pooled.stats.worker_fallbacks == 1
            assert pooled.stats.worker_fallback_kind == "failure"
            assert pooled.query_pool is None
            # Still serving: further appends and queries keep working.
            _append(pooled, "live", _batch(rng, 10, 60), histories)
            reference = _replay_service(
                FCMModel(stream_model.config), static_tables[:4], histories
            )
            _assert_rankings_match(
                pooled.query(query_charts[2], k=5),
                reference.query(query_charts[2], k=5),
            )
        finally:
            pooled.close()


# --------------------------------------------------------------------------- #
# Subscriptions: delivery, bounds, faults, observability
# --------------------------------------------------------------------------- #
class TestSubscriptions:
    def _service_with_stream(self, model, tables, seed=21, rows=40):
        service = _make_service(model)
        service.build(tables)
        rng = np.random.default_rng(seed)
        service.append_rows("live", _batch(rng, rows, 0), roles={"x": "x"})
        return service, rng

    def test_subscription_fires_within_one_batch_of_pattern_onset(
        self, stream_model, static_tables, tiny_fcm_config
    ):
        service, rng = self._service_with_stream(stream_model, static_tables[:3])
        # The planted pattern arrives as rows 64..96 == exactly window 2.
        filler = _batch(rng, 24, 40)
        onset = _batch(rng, 32, 64)
        chart = _pattern_chart(tiny_fcm_config, onset)
        expected = _preview_segment_score(stream_model, chart, onset, 0, 32)
        events_seen = []
        subscription_id = service.subscribe(
            chart,
            k=1,
            threshold=expected - 1e-9,
            callback=events_seen.append,
        )
        quiet = service.append_rows("live", filler)
        onset_result = service.append_rows("live", onset)
        assert onset_result.events_fired >= 1
        events = service.poll(subscription_id)
        fired = [e for e in events if e.segment_id == segment_table_id("live", 2)]
        assert fired, [e.to_dict() for e in events]
        alert = fired[0]
        assert alert.table_id == "live"
        assert alert.score >= expected - 1e-9
        assert alert.score == pytest.approx(expected, abs=dtype_tol(1e-12, 1e-6))
        assert alert.total_rows == 96
        assert quiet.total_rows == 64
        assert any(e.segment_id == alert.segment_id for e in events_seen)
        assert service.poll(subscription_id) == []  # drained

    def test_events_are_bounded_and_drops_are_counted(
        self, stream_model, static_tables
    ):
        service = _make_service(
            stream_model,
            streaming=StreamingConfig(segment_rows=WINDOW, max_pending_events=2),
        )
        service.build(static_tables[:3])
        rng = np.random.default_rng(31)
        service.append_rows("live", _batch(rng, 70, 0), roles={"x": "x"})
        chart = _pattern_chart(
            FCMModel(stream_model.config).config, _batch(rng, 32, 0)
        )
        subscription_id = service.subscribe(chart, k=8, threshold=0.0)
        for i in range(4):
            service.append_rows("live", _batch(rng, 40, 70 + 40 * i))
        stats = service.subscriptions.get(subscription_id).stats
        assert stats.events_dropped > 0
        events = service.poll(subscription_id)
        assert len(events) <= 2
        assert stats.events_delivered >= len(events)

    def test_raising_callback_is_isolated_and_counted(
        self, stream_model, static_tables
    ):
        service, rng = self._service_with_stream(stream_model, static_tables[:3])
        chart = _pattern_chart(
            FCMModel(stream_model.config).config, _batch(rng, 32, 0)
        )

        def explode(event):
            raise RuntimeError("subscriber bug")

        subscription_id = service.subscribe(
            chart, k=2, threshold=0.0, callback=explode
        )
        result = service.append_rows("live", _batch(rng, 40, 40))
        assert result.events_fired >= 1
        stats = service.subscriptions.get(subscription_id).stats
        assert stats.callback_errors >= 1
        # The event still landed in the queue despite the callback dying.
        assert len(service.poll(subscription_id)) >= 1
        # And the service keeps serving.
        service.append_rows("live", _batch(rng, 10, 80))
        assert service.stats.append_batches == 3

    def test_notify_scores_from_the_query_prepared_at_subscribe_time(
        self, stream_model, static_tables, query_charts, monkeypatch
    ):
        """A notification neither hashes nor extracts a chart, however many
        other queries have cycled through the scorer's preparation cache
        since ``subscribe``; the events are those of a twin service whose
        cache was never disturbed."""
        services = []
        for _ in range(2):
            service, rng = self._service_with_stream(stream_model, static_tables[:3])
            patterns = [
                _pattern_chart(stream_model.config, _batch(rng, 32, 0)) for _ in range(2)
            ]
            ids = [service.subscribe(c, k=2, threshold=-1e9) for c in patterns]
            services.append((service, ids, _batch(rng, 40, 40)))
        (disturbed, ids, rows), (twin, twin_ids, twin_rows) = services
        disturbed.scorer.clear_query_cache()
        for i in range(disturbed.scorer.QUERY_CACHE_SIZE + 4):
            table = Table(
                "unrelated",
                [
                    Column("x", np.arange(64.0), role="x"),
                    Column("y", np.sin(np.arange(64.0) * (i + 1) / 9.0), role="y"),
                ],
            )
            disturbed.query(
                render_chart_for_table(
                    table, ["y"], x_column="x", spec=stream_model.config.chart_spec
                ),
                k=1,
            )
        assert len(disturbed.scorer._query_cache) == disturbed.scorer.QUERY_CACHE_SIZE

        calls = []
        extractor = type(disturbed.scorer.extractor)
        for owner, name in ((extractor, "extract"), (type(query_charts[0]), "fingerprint")):
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        result = disturbed.append_rows("live", rows)
        assert calls == []
        monkeypatch.undo()
        assert result.events_fired == twin.append_rows("live", twin_rows).events_fired > 0
        assert ids == twin_ids
        for subscription_id in ids:
            events = [e.to_dict() for e in disturbed.poll(subscription_id)]
            assert events == [e.to_dict() for e in twin.poll(subscription_id)]

    def test_unsubscribe_and_unknown_ids(self, stream_model, static_tables):
        service, rng = self._service_with_stream(stream_model, static_tables[:3])
        chart = _pattern_chart(
            FCMModel(stream_model.config).config, _batch(rng, 32, 0)
        )
        subscription_id = service.subscribe(chart, k=1, threshold=0.5)
        assert subscription_id in service.subscriptions.active
        assert service.unsubscribe(subscription_id) is True
        assert subscription_id not in service.subscriptions.active
        with pytest.raises(KeyError):
            service.poll(subscription_id)
        assert service.unsubscribe("sub-999999") is False  # idempotent
        with pytest.raises(ValueError):
            service.subscribe(chart, k=0)

    def test_snapshot_save_load_with_live_subscriptions(
        self, stream_model, static_tables, tmp_path
    ):
        """Snapshots during live subscriptions: the service keeps firing,
        the restored service streams on with empty-but-usable
        subscriptions (they are deliberately not persisted)."""
        service, rng = self._service_with_stream(stream_model, static_tables[:3])
        onset = _batch(rng, 32, 64)
        chart = _pattern_chart(FCMModel(stream_model.config).config, onset)
        expected = _preview_segment_score(stream_model, chart, onset, 0, 32)
        subscription_id = service.subscribe(chart, k=1, threshold=expected - 1e-9)
        path = service.save_index(tmp_path / "live.npz")
        # Original keeps serving and firing after the save.
        service.append_rows("live", _batch(rng, 24, 40))
        result = service.append_rows("live", onset)
        assert result.events_fired >= 1
        assert len(service.poll(subscription_id)) >= 1

        restored = SearchService.load_index(
            stream_model,
            path,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
                streaming=StreamingConfig(segment_rows=WINDOW),
            ),
        )
        assert restored.subscriptions.active == []
        assert restored.scorer.streams["live"] == [
            segment_table_id("live", 0),
            segment_table_id("live", 1),
        ]
        # The restored stream continues from the persisted row count and a
        # fresh subscription fires on the same planted pattern.
        new_sub = restored.subscribe(chart, k=1, threshold=expected - 1e-9)
        restored.append_rows("live", _batch(rng, 24, 40))
        restored_result = restored.append_rows("live", onset)
        assert restored_result.total_rows == 96
        assert restored_result.events_fired >= 1
        assert len(restored.poll(new_sub)) >= 1

    def test_append_trace_and_ingest_metrics(
        self, stream_model, static_tables
    ):
        service = _make_service(stream_model, tracing=True)
        registry = service.registry
        service.build(static_tables[:3])
        rng = np.random.default_rng(41)
        service.append_rows("live", _batch(rng, 40, 0), roles={"x": "x"})
        chart = _pattern_chart(
            FCMModel(stream_model.config).config, _batch(rng, 32, 0)
        )
        service.subscribe(chart, k=1, threshold=0.0)
        service.append_rows("live", _batch(rng, 20, 40))

        def names(tree):
            return [tree["name"]] + [
                n for child in tree.get("children", []) for n in names(child)
            ]

        trace = service.last_trace
        assert trace["name"] == "append_rows"
        spans = names(trace)
        assert "notify" in spans
        assert "subscription" in spans
        assert registry.counter("repro_ingest_rows_total").value() == 60
        assert registry.counter("repro_ingest_batches_total").value() == 2
        delivered = registry.counter("repro_subscription_events_total").value(result="delivered")
        assert delivered == service.stats.subscription_events
        notify = registry.snapshot()["repro_subscription_notify_seconds"]["series"]
        assert [series["count"] for series in notify] == [1]  # one subscription, one batch

    def test_ingest_metrics_are_per_service(self, stream_model, static_tables):
        """Each service records its ingest in its own registry: two services
        in one process never mix counts."""
        first, second = _make_service(stream_model), _make_service(stream_model)
        for service in (first, second):
            service.build(static_tables[:2])
        first.append_rows("live", _batch(np.random.default_rng(43), 40, 0), roles={"x": "x"})
        assert first.registry.counter("repro_ingest_rows_total").value() == 40
        assert second.registry.counter("repro_ingest_rows_total").value() == 0  # shown at 0
        assert (first.stats.rows_appended, second.stats.rows_appended) == (40, 0)

    def test_append_stream_rows_requires_processor_support(self, stream_model):
        """The low-level helper validates its inputs on its own."""
        service = _make_service(stream_model)
        service.build([])
        with pytest.raises(ValueError):
            append_stream_rows(
                service.processor, "", {"x": np.arange(4.0)}, segment_rows=WINDOW
            )
        with pytest.raises(ValueError):
            append_stream_rows(
                service.processor, "s", {}, segment_rows=WINDOW
            )
