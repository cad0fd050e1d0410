"""Tests for :mod:`repro.fcm.fastpath`: fused kernel + quantized pre-filter.

Five contracts are pinned down here:

* **kernel == graphed** — the pack forward must reproduce the graphed
  batched path (``fused=False``) and the per-pair reference (<= 1e-8 in
  float64, rounding noise in float32) across HCMAN variants, chunkings and
  the worker-pool path; the averaged ablation has no kernel and serves
  through the graphed path either way;
* **quantization edge cases** — all-zero tables take the ``scale = 0.0``
  guard, round-trip error respects the symmetric-quantization bound, and
  the coarse rows — computed from the encodings, through a maintained
  coarse pack too — equal bitwise the per-table int8 copy every entry used
  to carry, pooled, re-quantized and dequantized as the padded int8 pack
  did;
* **exact pack** — every HCMAN scan scores from key/value projections,
  cached index-wide for multi-chunk scans and projected per call otherwise:
  both give an entry the same score, scores match the per-pair reference,
  the layout never depends on mutation order, and in-place weight updates
  rebuild both packs;
* **coarse pack** — the pre-filter scores an exact-pack layout of coarse
  rows with the real kernel, agrees with the project-per-call oracle, is
  repaired by a write instead of dropped, raises ``KeyError`` for an id it
  does not hold, and shares one weights check with the exact pack;
* **pre-filter semantics** — overscan covers-all is the identity, the kept
  set is deterministic, the serving flag validates, and on the *trained*
  fixture the top-k recall against exact scoring holds the pinned floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMConfig, FCMModel, FCMScorer, fastpath
from repro.fcm.fastpath import (
    PREFILTER_DTYPE,
    PREFILTER_POOL,
    FusedMatchKernel,
    coarse_rows,
    exact_pack_scores,
    quantize_tables,
)
from repro.fcm.scorer import EncodedTable
from repro.index import LSHConfig
from repro.obs import start_trace
from repro.serving import SearchService, ServingConfig, StreamingConfig

from conftest import (
    active_dtype,
    assert_exact_pack_is_a_rebuild,
    copy_scorer,
    dtype_tol,
    quantize_table,
    scorer_count,
)


def project_per_call_scores(kernel, chart_repr, table_batch, segment_mask, column_mask, exact):
    """``(B,)`` scores of one zero-padded candidate stack (masks as
    ``pad_candidate_batch`` returns them), its key and value projections
    computed here, per call, then laid out batch-last for the kernel — the
    oracle of a pack, which projects every row once, ahead of the query."""
    seg = kernel._matcher.segment_level
    b, nc, n2, dim = table_batch.shape
    return kernel._hcman_core(
        kernel.chart_side(chart_repr),
        fastpath._batch_last(fastpath._project(table_batch.reshape(b, nc * n2, dim), seg.key_proj)),
        fastpath._batch_last(fastpath._project(table_batch, seg.value_proj)),
        fastpath._batch_last(np.asarray(segment_mask, dtype=bool)),
        fastpath._batch_last(np.asarray(column_mask, dtype=bool)),
        exact,
    )


def _tiny_config(**overrides) -> FCMConfig:
    base = dict(
        embed_dim=16,
        num_heads=2,
        num_layers=1,
        data_segment_size=32,
        beta=2,
        max_data_segments=4,
    )
    base.update(overrides)
    return FCMConfig(**base)


def _make_repository(num_tables: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(num_tables):
        n = int(rng.integers(60, 200))
        columns = [Column("x", np.arange(n, dtype=float), role="x")]
        for c in range(int(rng.integers(1, 5))):
            offset = float(rng.standard_normal()) * 4.0
            columns.append(
                Column(f"y{c}", offset + np.cumsum(rng.standard_normal(n)), role="y")
            )
        tables.append(Table(f"tbl{i:03d}", columns))
    return tables


@pytest.fixture(scope="module")
def repository():
    return _make_repository(10)


@pytest.fixture(scope="module")
def query_chart(repository):
    table = repository[0]
    lines = [c.name for c in table.columns if c.role == "y"][:2]
    return render_chart_for_table(table, lines, x_column="x", spec=ChartSpec())


def _make_service(model, **config_kwargs) -> SearchService:
    config_kwargs.setdefault("lsh_config", LSHConfig(num_bits=6, hamming_radius=1))
    return SearchService(model, ServingConfig(**config_kwargs))


# --------------------------------------------------------------------------- #
# Fused kernels vs the graphed batched path
# --------------------------------------------------------------------------- #
class TestFusedParity:
    @pytest.fixture(
        scope="class", params=["hcman+da", "hcman-only", "averaged"]
    )
    def scorer(self, request, repository):
        variant = {
            "hcman+da": dict(use_hcman=True, enable_da_layers=True),
            "hcman-only": dict(use_hcman=True, enable_da_layers=False),
            "averaged": dict(use_hcman=False, enable_da_layers=True),
        }[request.param]
        scorer = FCMScorer(FCMModel(_tiny_config(**variant)))
        scorer.index_repository(repository)
        return scorer

    def test_fused_matches_graphed_scores(self, scorer, query_chart):
        fused = scorer.score_chart_batch(query_chart, fused=True)
        graphed = scorer.score_chart_batch(query_chart, fused=False)
        reference = scorer.score_chart(query_chart)
        assert set(fused) == set(graphed) == set(reference)
        for table_id, score in graphed.items():
            assert fused[table_id] == pytest.approx(
                score, abs=dtype_tol(1e-8, 5e-5)
            )
            assert fused[table_id] == pytest.approx(
                reference[table_id], abs=dtype_tol(1e-8, 5e-5)
            )
        if not scorer.model.config.use_hcman:
            # No kernel for the ablation: one graphed path, whatever is asked.
            assert fused == graphed == scorer.score_chart_batch(query_chart)

    def test_fused_chunked_matches_single_batch(self, scorer, query_chart):
        full = scorer.score_chart_batch(query_chart, batch_size=None, fused=True)
        chunked = scorer.score_chart_batch(query_chart, batch_size=3, fused=True)
        for table_id, score in full.items():
            assert chunked[table_id] == pytest.approx(
                score, abs=dtype_tol(1e-8, 5e-5)
            )

    def test_kernel_supported_for_shipped_matchers(self, scorer):
        """HCMAN has a kernel; the averaged ablation reports unsupported."""
        supported = scorer.model.config.use_hcman
        assert FusedMatchKernel(scorer.model.matcher).supported is supported
        assert (scorer._fused_kernel() is not None) is supported

    def test_unsupported_matcher_reports_and_falls_back(
        self, scorer, query_chart, monkeypatch
    ):
        class _ForeignMatcher:
            pass

        dead = FusedMatchKernel(_ForeignMatcher())
        assert not dead.supported
        monkeypatch.setattr(scorer, "_kernel", dead)
        assert scorer._fused_kernel() is None
        # fused=True silently degrades to the graphed path, same scores.
        fused = scorer.score_chart_batch(query_chart, fused=True)
        graphed = scorer.score_chart_batch(query_chart, fused=False)
        assert fused == graphed


class TestServingFusedParity:
    def test_worker_pool_matches_in_process(self, small_records):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:6]]
        chart = render_chart_for_table(
            small_records[1].table,
            list(small_records[1].spec.y_columns),
            x_column=small_records[1].spec.x_column,
            spec=model.config.chart_spec,
        )
        in_process = _make_service(model, result_cache_size=0)
        in_process.build(tables)
        pooled = _make_service(
            model, query_workers=2, result_cache_size=0, worker_timeout=120.0
        )
        pooled.build(tables)
        try:
            a = in_process.query(chart, k=5, strategy="none")
            b = pooled.query(chart, k=5, strategy="none")
            assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
            for (_, sa), (_, sb) in zip(a.ranking, b.ranking):
                assert abs(sa - sb) <= dtype_tol(1e-8, 5e-5)
            if pooled.worker_fallback_reason is None:
                assert pooled.stats.worker_queries > 0
        finally:
            pooled.close()


# --------------------------------------------------------------------------- #
# Quantization edge cases and pack geometry
# --------------------------------------------------------------------------- #
class TestQuantization:
    def test_all_zero_table_takes_scale_zero_guard(self):
        (quantized,) = quantize_tables([np.zeros((2, 3, 4))])
        assert quantized.scale == 0.0
        assert quantized.codes.shape == (2, 3, 4)
        assert quantized.codes.dtype == np.int8
        assert not quantized.codes.any()

    def test_non_finite_amax_takes_scale_zero_guard(self):
        reps = np.zeros((1, 2, 3))
        reps[0, 0, 0] = np.inf
        assert quantize_tables([reps])[0].scale == 0.0

    def test_roundtrip_error_within_half_scale(self):
        rng = np.random.default_rng(5)
        reps = rng.standard_normal((3, 4, 8))
        (quantized,) = quantize_tables([reps])
        dequantized = quantized.codes.astype(np.float64) * quantized.scale
        assert np.max(np.abs(dequantized - reps)) <= quantized.scale / 2 + 1e-12

    @pytest.mark.parametrize("chunk", [fastpath._COARSE_ROWS_CHUNK, 2])
    def test_coarse_rows_are_the_int8_copy_pooled_and_requantized(
        self, repository, monkeypatch, chunk
    ):
        """Each table's coarse rows, computed from its encoding, are bit for
        bit what the per-table int8 copy every cached entry used to carry
        gave: pooled, re-quantized with one ``amax / 127`` scale and
        dequantized at the pass's dtype — its slice of the padded int8 pack
        the pre-filter scored before that — however the tables are chunked."""
        monkeypatch.setattr(fastpath, "_COARSE_ROWS_CHUNK", chunk)
        rng = np.random.default_rng(7)
        reps = [
            rng.standard_normal((1, 5, 8)).astype(active_dtype()),
            rng.standard_normal((3, 2, 8)).astype(active_dtype()),
            np.zeros((2, 1, 8), dtype=active_dtype()),
        ]
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository[:4])
        reps += [scorer.encoded_table(t).representations for t in scorer.indexed_table_ids]
        oracle = [quantize_table(table) for table in reps]
        for ours, theirs in zip(quantize_tables(reps), oracle):
            assert ours.scale == theirs.scale
            assert ours.codes.tobytes() == theirs.codes.tobytes()
        for dtype in (PREFILTER_DTYPE, np.float64):
            rows = coarse_rows(reps, dtype)
            # ceil(N2 / pool) pooled rows: 5 -> 3, 2 -> 1, 1 -> 1.
            assert [r.shape for r in rows[:3]] == [(1, 3, 8), (3, 1, 8), (2, 1, 8)]
            assert not rows[2].any()  # the all-zero table keeps the guard
            for ours, theirs in zip(rows, _padded_pack_rows(oracle, dtype)):
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
        assert coarse_rows([], PREFILTER_DTYPE) == []

    def test_a_maintained_coarse_pack_holds_the_oracle_rows(self, repository):
        """The coarse pack, built and then maintained across writes, equals
        array for array a pack built over the oracle's rows — the per-table
        int8 copy pooled and re-quantized at PREFILTER_DTYPE — an all-zero
        table (scale 0) included."""
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository[:6])
        zero = np.zeros((2, 3, scorer.config.embed_dim), dtype=active_dtype())
        scorer.write(
            entries=[
                EncodedTable(
                    table_id="zero",
                    representations=zero,
                    column_names=["a", "b"],
                    column_ranges=[(0.0, 1.0)] * 2,
                    column_embeddings=zero.mean(axis=1),
                )
            ]
        )
        built = scorer.coarse_pack()
        scorer.index_repository(repository[6:])
        scorer.write(drop=[repository[0].table_id])
        pack = scorer.coarse_pack()
        assert 0 < (pack.born > built.generation).sum() < len(pack.index)  # maintained
        ids = sorted(scorer.indexed_table_ids)
        reps = [scorer.encoded_table(t).representations for t in ids]
        oracle = _padded_pack_rows([quantize_table(table) for table in reps], PREFILTER_DTYPE)
        entries = [(t, rows, [(-np.inf, np.inf)] * len(rows)) for t, rows in zip(ids, oracle)]
        assert "zero" in pack.index
        assert_exact_pack_is_a_rebuild(scorer, pack, entries)

    def test_scores_run_real_matcher_and_unknown_ids_raise(
        self, repository, query_chart, monkeypatch
    ):
        """The coarse pass is the kernel over the coarse pack's float32 rows
        with native accumulation; an id the index does not hold is a
        ``KeyError`` naming it on both sides of the cut — from the coarse
        pack when ``keep`` cuts, from verification when it keeps all."""
        calls = []
        core = FusedMatchKernel._hcman_core

        def counting_core(self, chart, keys, values, segment_mask, column_mask, exact=True):
            calls.append((keys.dtype, keys.shape[-1], exact))
            return core(self, chart, keys, values, segment_mask, column_mask, exact)

        monkeypatch.setattr(FusedMatchKernel, "_hcman_core", counting_core)
        for use_hcman in (True, False):
            scorer = FCMScorer(FCMModel(_tiny_config(use_hcman=use_hcman)))
            scorer.index_repository(repository[:4])
            chart_input = scorer.prepare_query(query_chart)
            ids = sorted(scorer.indexed_table_ids)
            calls.clear()
            assert len(scorer.prefilter_ids(chart_input, ids, 2)) == 2
            if use_hcman:
                assert calls and sum(rows for _, rows, _ in calls) == len(ids)
                assert all(dtype == PREFILTER_DTYPE and not exact for dtype, _, exact in calls)
            else:
                assert not calls  # the graphed path over the same rows
            for keep in (len(ids), len(ids) + 1):  # cuts one / keeps all
                with pytest.raises(KeyError, match="missing"):
                    kept = scorer.prefilter_ids(chart_input, ids + ["missing"], keep)
                    scorer.score_encoded_batch(chart_input, kept)

    def test_empty_pack_holds_nothing(self, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        pack = scorer.coarse_pack()
        assert pack.index == {} and pack.buckets == () and pack.nbytes == 0
        with pytest.raises(KeyError, match="anything"):
            scorer.prefilter_ids(scorer.prepare_query(query_chart), ["anything"], 0)


def _padded_pack_rows(quantized, dtype):
    """The pre-filter's input as the padded int8 pack held it, per table:
    pool segment rows in twos, re-quantize with ``amax / 127``, dequantize
    the codes at ``dtype`` — the reference the coarse rows must equal."""
    out = []
    for table in quantized:
        codes = table.codes.astype(np.float64) * float(table.scale)
        nc, n2, dim = codes.shape
        ns = -(-n2 // 2)
        padded = np.zeros((nc, ns * 2, dim))
        padded[:, :n2] = codes
        counts = np.clip(n2 - np.arange(ns) * 2, 1, 2).astype(np.float64)
        pooled = padded.reshape(nc, ns, 2, dim).sum(axis=2) / counts[None, :, None]
        amax = float(np.max(np.abs(pooled)))
        scale, codes8 = 0.0, np.zeros(pooled.shape, dtype=np.int8)
        if np.isfinite(amax) and amax > 0.0:
            scale = amax / 127.0
            codes8 = np.clip(np.rint(pooled / scale), -127, 127).astype(np.int8)
        rows = codes8.astype(dtype)
        rows *= np.asarray([scale]).astype(dtype)
        out.append(rows)
    return out


# --------------------------------------------------------------------------- #
# The coarse pack (the pre-filter's exact-pack layout of coarse rows)
# --------------------------------------------------------------------------- #
class TestCoarsePack:
    @pytest.fixture(scope="class")
    def scorer(self, repository):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        return scorer

    def _chart_repr(self, scorer, query_chart) -> np.ndarray:
        chart_input = scorer.prepare_query(query_chart)
        return scorer.encode_query(chart_input).astype(PREFILTER_DTYPE)

    def _scores(self, scorer, chart, ids) -> np.ndarray:
        pack = scorer.coarse_pack()
        positions = np.asarray([pack.index[t] for t in ids])
        return exact_pack_scores(
            scorer._fused_kernel(), pack, chart, positions, (0.0, 1.0), 0.0, exact=False
        )

    def test_pack_scores_match_the_project_per_call_oracle(self, scorer, query_chart):
        """The pack only moves query-independent work: per-id scores equal
        projecting the zero-padded coarse rows per call at PREFILTER_DTYPE."""
        from repro.fcm.scorer import pad_candidate_batch

        kernel = scorer._fused_kernel()
        chart = self._chart_repr(scorer, query_chart)
        ids = sorted(scorer.indexed_table_ids)
        rows = coarse_rows(
            [scorer.encoded_table(t).representations for t in ids], PREFILTER_DTYPE
        )
        reference = project_per_call_scores(kernel, chart, *pad_candidate_batch(rows), exact=False)
        np.testing.assert_allclose(self._scores(scorer, chart, ids), reference, atol=1e-5)

    def test_pack_layout_is_the_coarse_rows(self, scorer):
        pack = scorer.coarse_pack()
        assert list(pack.index) == sorted(scorer.indexed_table_ids)
        for table_id, position in pack.index.items():
            nc, n2, _ = scorer.encoded_table(table_id).representations.shape
            bucket = pack.buckets[pack.bucket_of[position]]
            assert bucket.shape == (nc, -(-n2 // PREFILTER_POOL))
        for bucket in pack.buckets:
            assert bucket.keys.dtype == bucket.values.dtype == PREFILTER_DTYPE
            assert (bucket.lows == -np.inf).all() and (bucket.highs == np.inf).all()
        assert_exact_pack_is_a_rebuild(
            scorer, pack, scorer._coarse_entries(sorted(scorer.indexed_table_ids), scorer.generation)
        )

    def test_scoring_does_not_mutate_the_pack(self, scorer, query_chart):
        pack = scorer.coarse_pack()
        snapshots = [array.copy() for bucket in pack.buckets for array in bucket]
        chart = self._chart_repr(scorer, query_chart)
        ids = list(pack.index)
        np.testing.assert_array_equal(
            self._scores(scorer, chart, ids), self._scores(scorer, chart, ids)
        )
        for snapshot, array in zip(snapshots, (a for b in pack.buckets for a in b)):
            np.testing.assert_array_equal(snapshot, array)

    def test_subset_and_unsorted_candidates_use_the_lookup_path(
        self, scorer, query_chart
    ):
        chart = self._chart_repr(scorer, query_chart)
        everything = sorted(scorer.coarse_pack().index)
        by_id = dict(zip(everything, self._scores(scorer, chart, everything)))
        subset = list(reversed(everything))[:5]
        # Not bitwise: BLAS blocking may differ with the batch row count.
        for table_id, score in zip(subset, self._scores(scorer, chart, subset)):
            np.testing.assert_allclose(score, by_id[table_id], atol=1e-6)
        chart_input = scorer.prepare_query(query_chart)
        with pytest.raises(KeyError, match="nope"):
            scorer.prefilter_ids(chart_input, subset + ["nope"], 2)

    def test_scorer_repairs_the_pack_on_a_write(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = sorted(scorer.indexed_table_ids)
        chart_input = scorer.prepare_query(query_chart)
        scorer.prefilter_ids(chart_input, ids, 4)
        before = scorer.generation
        first = before.packs.coarse
        assert first is not None and list(first.index) == ids
        assert scorer.write(drop=[ids[-1]]).stats.removed == [ids[-1]]
        assert before.packs.coarse is first  # the generation held keeps its pack
        repaired = scorer.generation.packs.coarse  # the write advanced it
        assert list(repaired.index) == ids[:-1] and repaired.weights is first.weights
        assert not (repaired.born == repaired.generation).any()  # nothing projected
        kept = scorer.prefilter_ids(chart_input, ids[:-1], 4)
        assert set(kept) <= set(ids[:-1]) and scorer.generation.packs.coarse is repaired
        assert_exact_pack_is_a_rebuild(scorer, repaired, scorer._coarse_entries(ids[:-1], scorer.generation))

    def test_averaged_ablation_prefilters_through_the_graphed_path(
        self, repository, query_chart
    ):
        scorer = FCMScorer(FCMModel(_tiny_config(use_hcman=False)))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        kept = scorer.prefilter_ids(chart_input, ids, 4)
        assert scorer.generation.packs.coarse is None  # nothing table-side to project
        assert len(kept) == 4 and set(kept) <= set(ids)
        assert kept == scorer.prefilter_ids(chart_input, ids, 4)
        with pytest.raises(RuntimeError, match="fused HCMAN kernel"):
            scorer.coarse_pack()

    def test_one_weights_check_serves_both_packs(self, repository, query_chart, monkeypatch):
        """While no parameter moves a pre-filtered query compares no
        projection weights; a head-only step moves the version and keeps
        both packs, a ``key_proj`` step rebuilds both, whichever pack is
        read first."""
        model = FCMModel(_tiny_config())
        scorer = FCMScorer(model)
        scorer.index_repository(repository)
        ids = sorted(scorer.indexed_table_ids)
        chart_input = scorer.prepare_query(query_chart)
        kernel = scorer._fused_kernel()
        asked = []
        inner = kernel.projections_current
        monkeypatch.setattr(kernel, "projections_current", lambda w: asked.append(1) or inner(w))
        scorer.score_encoded_batch(chart_input, ids, batch_size=3)
        scorer.prefilter_ids(chart_input, ids, 4)
        packs = scorer.generation.packs
        exact, coarse = packs.exact, packs.coarse
        for _ in range(3):
            scorer.prefilter_ids(chart_input, ids, 4)
        assert not asked and packs.coarse is coarse
        for parameter in model.matcher.head.parameters():
            parameter.data *= 1.01
        scorer.prefilter_ids(chart_input, ids, 4)
        assert len(asked) == 2  # each held pack's weights, once
        assert scorer.exact_pack() is exact and scorer.coarse_pack() is coarse
        model.matcher.segment_level.key_proj.weight.data *= 1.01
        scorer.prefilter_ids(chart_input, ids, 4)  # the coarse read settles both
        assert packs.exact is None and packs.coarse is not coarse
        fresh = copy_scorer(scorer, list(scorer.generation.encoded))
        assert_exact_pack_is_a_rebuild(scorer, packs.coarse, fresh._coarse_entries(ids, fresh.generation))
        assert scorer.exact_pack() is not exact and scorer_count(scorer, "exact_pack_builds") == 2
        assert len(asked) == 4


# --------------------------------------------------------------------------- #
# Exact pack (table-side float projections: index-wide cache or per call)
# --------------------------------------------------------------------------- #
class TestExactPack:
    #: More tables than one 256-candidate forward holds.
    NUM_TABLES = 262

    @pytest.fixture(scope="class")
    def service(self):
        """Mixed column counts and lengths, two tables far from every
        query's y-range, one table half inside it, two streams of unequal
        segment counts."""
        tables = _make_repository(self.NUM_TABLES)
        n = 96
        x = Column("x", np.arange(n, dtype=float), role="x")
        far_x = Column("x", 1e5 + np.arange(n, dtype=float), role="x")
        wave = np.sin(np.linspace(0.0, 6.0, n))
        tables += [
            Table("far-a", [far_x, Column("y0", 1e6 + wave, role="y")]),
            Table(
                "far-b",
                [
                    far_x,
                    Column("y0", -1e6 + wave, role="y"),
                    Column("y1", 2e6 + wave, role="y"),
                ],
            ),
            Table(
                "half",
                [x, Column("y0", wave, role="y"), Column("y1", 1e6 + wave, role="y")],
            ),
        ]
        service = _make_service(
            FCMModel(_tiny_config()),
            result_cache_size=0,
            streaming=StreamingConfig(segment_rows=32),
        )
        service.build(tables)
        rng = np.random.default_rng(5)
        for stream_id, rows in (("stream-short", 40), ("stream-long", 100)):
            service.append_rows(
                stream_id,
                {
                    "x": np.arange(rows, dtype=float),
                    "y": np.cumsum(rng.standard_normal(rows)),
                },
                roles={"x": "x"},
            )
        return service

    def test_pack_matches_per_pair_reference(self, service, query_chart):
        scorer = service.scorer
        y_range = scorer.prepare_query(query_chart).y_range
        # The filter's cases are all present: no column overlaps the query
        # (keep all of them), and some but not all do.
        kept = {
            table_id: len(scorer._select_columns(scorer.encoded_table(table_id), y_range))
            for table_id in ("far-a", "far-b", "half")
        }
        assert kept == {"far-a": 2, "far-b": 3, "half": 2}
        packed = scorer.score_chart_batch(query_chart)
        pack = scorer.generation.packs.exact
        assert pack is not None and len(pack.buckets) > 3
        segment_counts = {
            scorer.encoded_table(s).representations.shape[1]
            for s in ("stream-short", "stream-long")
        }
        assert len(segment_counts) == 2
        reference = scorer.score_chart(query_chart)
        assert list(packed) == list(reference)
        tolerance = dtype_tol(1e-8, 5e-5)
        for table_id, score in reference.items():
            assert packed[table_id] == pytest.approx(score, abs=tolerance)
        ranking = service.query(query_chart, k=len(reference), strategy="none").ranking
        assert dict(ranking) == packed

    def test_transient_pack_scores_equal_the_index_wide_pack(
        self, service, query_chart
    ):
        """A table's exact score does not depend on which other candidates
        are verified with it, nor on where its projections came from — up
        to the last bit: the projections and every attention stage are
        bitwise batch-independent, but the interaction head is one 2-D GEMM
        whose row blocking follows the batch size (1e-16 observed)."""
        scorer = service.scorer
        chart_input = scorer.prepare_query(query_chart)
        everything = sorted(scorer.indexed_table_ids)
        cached = scorer.score_encoded_batch(chart_input, everything)
        builds = scorer_count(scorer, "exact_pack_builds")
        assert scorer.generation.packs.exact is not None
        rng = np.random.default_rng(3)
        special = ["far-a", "far-b", "half", "stream-short", "stream-long"]
        plain = [table_id for table_id in everything if table_id not in special]
        subsets = [special, plain[:40]] + [
            special + rng.choice(plain, size=size, replace=False).tolist()
            for size in (1, 17, 80)
        ]
        for subset in subsets:
            transient = scorer.score_encoded_batch(chart_input, subset)
            assert list(transient) == subset
            for table_id, score in transient.items():
                assert score == pytest.approx(
                    cached[table_id], abs=dtype_tol(1e-12, 5e-5)
                )
        assert scorer_count(scorer, "exact_pack_builds") == builds

    def test_sparse_buckets_share_a_padded_call(
        self, service, query_chart, monkeypatch
    ):
        """Buckets asked for less work than a kernel call costs are scored
        zero-padded together; the scores are those of one call per bucket
        (forced by a zero overhead) up to the last bit — filtered, keep-all
        and stream-parent rows included — and the grouping follows the cost
        rule, not the request order."""
        scorer = service.scorer
        chart_input = scorer.prepare_query(query_chart)
        pack = scorer.exact_pack()
        special = ["far-a", "far-b", "half", "stream-short", "stream-long"]
        subset = special + sorted(scorer.indexed_table_ids)[:60:3]
        counts = np.bincount(
            pack.bucket_of[[pack.index[table_id] for table_id in subset]],
            minlength=len(pack.buckets),
        )
        requested = np.flatnonzero(counts).tolist()
        groups = fastpath._call_groups(pack, counts)
        assert [number for group in groups for number in group] == requested
        assert len(groups) < len(requested)  # something merged
        for group in groups:
            shapes = [pack.buckets[number].shape for number in group]
            padded = max(nc for nc, _ in shapes) * max(n2 for _, n2 in shapes)
            assert sum(counts[group]) * padded <= fastpath.CALL_MAX_CELLS
        # Every bucket dense (all 267 entries asked for): nothing merges
        # unless the bucket itself is below the overhead.
        everything = np.asarray([bucket.rows for bucket in pack.buckets])
        for group in fastpath._call_groups(pack, everything):
            if len(group) > 1:
                for number in group:
                    bucket = pack.buckets[number]
                    cells = bucket.rows * bucket.shape[0] * bucket.shape[1]
                    assert cells < fastpath.CALL_OVERHEAD_CELLS
        # A call that may hold one cell never merges.
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "CALL_MAX_CELLS", 1)
            assert fastpath._call_groups(pack, counts) == [[n] for n in requested]

        calls = []
        core = FusedMatchKernel._hcman_core

        def counting_core(self, *args, **kwargs):
            calls.append(args[1].shape)
            return core(self, *args, **kwargs)

        monkeypatch.setattr(FusedMatchKernel, "_hcman_core", counting_core)
        merged = scorer.score_encoded_batch(chart_input, subset)
        merged_calls = len(calls)
        assert scorer.score_encoded_batch(chart_input, subset[::-1]) == {
            table_id: merged[table_id] for table_id in subset[::-1]
        }
        calls.clear()
        monkeypatch.setattr(fastpath, "CALL_OVERHEAD_CELLS", 0)
        separate = scorer.score_encoded_batch(chart_input, subset)
        assert merged_calls < len(calls) == len(requested)
        reference = scorer.score_encoded_batch(chart_input, subset, fused=False)
        for table_id in subset:
            assert merged[table_id] == pytest.approx(
                separate[table_id], abs=dtype_tol(1e-12, 5e-5)
            )
            assert merged[table_id] == pytest.approx(
                reference[table_id], abs=dtype_tol(1e-8, 5e-5)
            )

    def test_single_chunk_and_graphed_scans_build_no_pack(
        self, repository, query_chart
    ):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        scorer.score_chart_batch(query_chart)
        scorer.score_chart_batch(query_chart, batch_size=None)
        scorer.score_chart_batch(query_chart, batch_size=3, fused=False)
        assert scorer.generation.packs.exact is None and scorer_count(scorer, "exact_pack_builds") == 0
        averaged = FCMScorer(FCMModel(_tiny_config(use_hcman=False)))
        averaged.index_repository(repository)
        averaged.score_chart_batch(query_chart, batch_size=3)
        assert averaged.generation.packs.exact is None and scorer_count(averaged, "exact_pack_builds") == 0
        with pytest.raises(RuntimeError, match="fused HCMAN kernel"):
            averaged.exact_pack()

    def test_trace_says_which_projections_a_query_paid_for(
        self, repository, query_chart
    ):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        with start_trace("query") as root:
            scorer.score_chart_batch(query_chart)
            scorer.score_chart_batch(query_chart, batch_size=3)
            scorer.score_chart_batch(query_chart, fused=False)
        spans = [
            (child["name"], child.get("attributes"))
            for child in root.to_dict()["children"]
            if child["name"] not in ("prepare_query", "encode_chart")
        ]
        tables = len(repository)
        # The second list is a copy naming every row in order: the position
        # lookup finds it a full scan, and the trace says so.
        assert spans == [
            ("verify_exact", {"tables": tables, "projections": "fresh", "scan": "subset"}),
            ("verify_exact", {"tables": tables, "projections": "cached", "scan": "full"}),
        ]

    def test_builds_bytes_and_invalidation_are_observable(
        self, repository, query_chart
    ):
        """A write advances the pack: it projects the rows that changed and
        nothing else, and the next multi-chunk scan projects none."""
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        bare = scorer.cache_nbytes()
        counters = lambda: (
            scorer_count(scorer, "exact_pack_builds"),
            scorer_count(scorer, "exact_pack_rows_projected"),
        )
        assert counters() == (0, 0) and scorer.exact_pack_nbytes == 0
        scorer.score_chart_batch(query_chart, batch_size=3)
        scorer.score_chart_batch(query_chart, batch_size=4)
        assert counters() == (1, len(repository))
        pack_bytes = scorer.exact_pack_nbytes
        assert pack_bytes == scorer.generation.packs.exact.nbytes > 0
        assert scorer.cache_nbytes() == bare + pack_bytes
        evicted = scorer.generation.encoded[repository[-1].table_id]
        scorer.write(drop=[evicted.table_id])  # the row leaves
        assert scorer.generation.packs.exact is not None
        scorer.score_chart_batch(query_chart, batch_size=3)
        assert counters() == (1, len(repository))
        assert 0 < scorer.exact_pack_nbytes < pack_bytes
        scorer.write(entries=[evicted])
        assert counters() == (1, len(repository) + 1)
        scorer.score_chart_batch(query_chart, batch_size=3)
        assert counters() == (1, len(repository) + 1)
        assert scorer.exact_pack_nbytes == pack_bytes
        # Evicted and put back: one row projected, by the write that put it back.
        scorer.write(drop=[evicted.table_id])
        scorer.write(entries=[evicted])
        scorer.score_chart_batch(query_chart, batch_size=3)
        assert counters() == (1, len(repository) + 2)

    def test_layout_ignores_mutation_order(self, service, query_chart):
        scorer = service.scorer
        before = scorer.score_chart_batch(query_chart)
        extra = _make_repository(1, seed=99)[0]
        held = scorer.generation.packs.exact
        counters = (
            scorer_count(scorer, "exact_pack_builds"),
            scorer_count(scorer, "exact_pack_rows_projected"),
        )
        service.add_tables([Table("throwaway", extra.columns)])
        service.remove_tables(["throwaway"])
        after = scorer.score_chart_batch(query_chart)
        assert after == before  # bitwise: same ids, same shapes, same layout
        # Added and removed: the add projected its one row and the remove
        # took it out again; the bucket it passed through is rebuilt equal,
        # every other one is the one held before.
        builds, rows = counters
        assert scorer_count(scorer, "exact_pack_builds") == builds
        assert scorer_count(scorer, "exact_pack_rows_projected") == rows + 1
        pack = scorer.generation.packs.exact
        assert pack.index == held.index
        for ours, theirs in zip(pack.buckets, held.buckets):
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a, b)
        assert sum(ours is not theirs for ours, theirs in zip(pack.buckets, held.buckets)) <= 1
        shuffled = copy_scorer(scorer, reversed(list(scorer.generation.encoded)))
        assert sorted(shuffled.score_chart_batch(query_chart).items()) == sorted(
            before.items()
        )

    def test_append_projects_one_row_and_builds_nothing(self, service, query_chart):
        """The acceptance case: on an index of more than 256 tables an append
        to one stream costs the next exhaustive query one projected row."""
        scorer = service.scorer
        assert len(scorer.indexed_table_ids) > 256
        service.query(query_chart, k=5, strategy="none")
        builds = scorer_count(scorer, "exact_pack_builds")
        rows = scorer_count(scorer, "exact_pack_rows_projected")
        held = scorer.generation.packs.exact
        parent = held.bucket_of[held.index["stream-short"]]
        total = service.processor.generation.streams["stream-short"].state["total_rows"]
        service.append_rows(
            "stream-short", {"x": np.arange(total, total + 8.0), "y": np.arange(8.0)}
        )
        pack = scorer.generation.packs.exact  # the write advanced the pack
        assert scorer_count(scorer, "exact_pack_rows_projected") == rows + 1
        served = service.query(query_chart, k=5, strategy="none")
        assert scorer.generation.packs.exact is pack
        assert scorer_count(scorer, "exact_pack_builds") == builds
        assert scorer_count(scorer, "exact_pack_rows_projected") == rows + 1
        for number, bucket in enumerate(pack.buckets):
            assert (bucket is held.buckets[number]) == (number != parent)
        fresh = copy_scorer(scorer, list(scorer.generation.encoded))
        assert dict(served.ranking) == dict(
            fresh.rank(query_chart, k=5, table_ids=sorted(scorer.indexed_table_ids))
        )

    def test_ids_outside_the_pack_go_transient(self, repository, query_chart):
        """Stream segments are not index-wide pack entries: even a scan of
        more of them than one batch holds projects them per call."""
        service = _make_service(
            FCMModel(_tiny_config()),
            result_cache_size=0,
            streaming=StreamingConfig(segment_rows=32),
        )
        service.build(repository)
        rng = np.random.default_rng(5)
        service.append_rows(
            "stream-long",
            {"x": np.arange(100.0), "y": np.cumsum(rng.standard_normal(100))},
            roles={"x": "x"},
        )
        scorer = service.scorer
        chart_input = scorer.prepare_query(query_chart)
        segment_ids = scorer.generation.segments("stream-long")
        assert len(segment_ids) > 2
        chunked = scorer.score_encoded_batch(chart_input, segment_ids, batch_size=2)
        single = scorer.score_encoded_batch(chart_input, segment_ids, batch_size=None)
        graphed = scorer.score_encoded_batch(chart_input, segment_ids, fused=False)
        assert list(chunked) == segment_ids
        for segment_id in segment_ids:
            assert chunked[segment_id] == pytest.approx(
                single[segment_id], abs=dtype_tol(1e-12, 5e-5)
            )
            assert chunked[segment_id] == pytest.approx(
                graphed[segment_id], abs=dtype_tol(1e-8, 5e-5)
            )
        mixed = ["stream-long", segment_ids[0], "tbl000"]
        assert list(scorer.score_encoded_batch(chart_input, mixed, batch_size=2)) == mixed
        assert scorer.generation.packs.exact is None and scorer_count(scorer, "exact_pack_builds") == 0
        for unknown in (["tbl000", "nope"], ["tbl000", "tbl001", "nope"]):
            with pytest.raises(KeyError):
                scorer.score_encoded_batch(chart_input, unknown, batch_size=2)
        assert scorer_count(scorer, "exact_pack_builds") == 0

    def test_in_place_weight_update_rebuilds_cached_projections(
        self, repository, query_chart
    ):
        """Cached projections freeze key_proj/value_proj: after the weights
        change under a live scorer, both packs must answer like a scorer
        built after the change."""
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = sorted(scorer.indexed_table_ids)
        chart_input = scorer.prepare_query(query_chart)
        scorer.score_encoded_batch(chart_input, ids, batch_size=3)
        scorer.prefilter_ids(chart_input, ids, 4)
        assert scorer.generation.packs.exact is not None and scorer.generation.packs.coarse is not None
        rng = np.random.default_rng(0)
        seg = scorer.model.matcher.segment_level
        for layer in (seg.key_proj, seg.value_proj):
            layer.weight.data[...] = rng.standard_normal(layer.weight.data.shape)
            layer.bias.data[...] = rng.standard_normal(layer.bias.data.shape)
        fresh = copy_scorer(scorer, list(scorer.generation.encoded))
        assert scorer.score_encoded_batch(
            chart_input, ids, batch_size=3
        ) == fresh.score_encoded_batch(chart_input, ids, batch_size=3)
        assert scorer.prefilter_ids(chart_input, ids, 4) == fresh.prefilter_ids(
            chart_input, ids, 4
        )
        assert_exact_pack_is_a_rebuild(scorer, scorer.generation.packs.coarse, fresh._coarse_entries(ids, fresh.generation))


# --------------------------------------------------------------------------- #
# Pre-filter semantics through the scorer and the serving config
# --------------------------------------------------------------------------- #
class TestPrefilter:
    def test_keep_covering_all_is_identity(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        assert scorer.prefilter_ids(chart_input, ids, len(ids)) == ids
        assert scorer.prefilter_ids(chart_input, ids, len(ids) + 5) == ids

    def test_kept_set_is_deterministic_subset(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        kept = scorer.prefilter_ids(chart_input, ids, 4)
        assert len(kept) == 4
        assert set(kept) <= set(ids)
        assert kept == sorted(kept)
        assert kept == scorer.prefilter_ids(chart_input, ids, 4)

    def test_prefilter_falls_back_without_fused_kernel(
        self, repository, query_chart, monkeypatch
    ):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        kept_fused = scorer.prefilter_ids(chart_input, ids, 4)
        monkeypatch.setattr(scorer, "_fused_kernel", lambda: None)
        kept_graphed = scorer.prefilter_ids(chart_input, ids, 4)
        if active_dtype() == np.float64:
            assert kept_fused == kept_graphed

    def test_serving_flag_marks_result_and_bounds_keep(self, small_records):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:8]]
        chart = render_chart_for_table(
            small_records[2].table,
            list(small_records[2].spec.y_columns),
            x_column=small_records[2].spec.x_column,
            spec=model.config.chart_spec,
        )
        service = _make_service(
            model,
            quantized_prefilter=True,
            prefilter_overscan=2,
            result_cache_size=0,
        )
        service.build(tables)
        result = service.query(chart, k=2, strategy="none")
        assert result.prefiltered == 2 * 2
        assert len(result.ranking) == 2
        # Survivors are projected per call: nothing index-wide goes resident.
        assert scorer_count(service.scorer, "exact_pack_builds") == 0
        exact = _make_service(model, result_cache_size=0)
        exact.build(tables)
        assert {t for t, _ in result.ranking} <= {
            t for t, _ in exact.query(chart, k=8, strategy="none").ranking
        }

    def test_overscan_validation(self):
        with pytest.raises(ValueError, match="prefilter_overscan"):
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6), prefilter_overscan=0
            )

    @pytest.mark.slow
    def test_recall_floor_on_trained_fixture(self):
        from repro.bench.fixture import trained_fixture_model
        from repro.data import SynthConfig, synth_query_charts, synth_tables

        config = FCMConfig(
            embed_dim=32,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            max_data_segments=8,
            beta=2,
        )
        model = trained_fixture_model(config)
        corpus = SynthConfig(
            num_tables=300, num_rows=256, max_columns=3, num_clusters=16, seed=11
        )
        exact = SearchService(
            model,
            ServingConfig(lsh_config=LSHConfig(num_bits=16), result_cache_size=0),
        )
        exact.build(synth_tables(corpus))
        approx = SearchService(
            model,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=16),
                result_cache_size=0,
                quantized_prefilter=True,
            ),
        )
        approx.build(synth_tables(corpus))
        recalls = []
        for _, chart in synth_query_charts(corpus, 5):
            exact_ids = {
                t for t, _ in exact.query(chart, k=10, strategy="none").ranking
            }
            approx_ids = {
                t for t, _ in approx.query(chart, k=10, strategy="none").ranking
            }
            recalls.append(len(exact_ids & approx_ids) / max(len(exact_ids), 1))
        # The coarse score is the real matcher on pooled int8 input, so the
        # exact top-k survives the default-overscan cut essentially always.
        assert float(np.mean(recalls)) >= 0.99, recalls

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [11, 12])
    def test_quality_floor_on_trained_fixture(self, seed):
        """The fixture ranks held-out charts by shape, not by chance: over a
        corpus it never trained on, a chart's top 10 are mostly its own
        cluster and its source table ranks near the top."""
        from repro.bench.fixture import trained_fixture_model
        from repro.data import SynthConfig, synth_query_charts, synth_tables

        config = FCMConfig(
            embed_dim=32,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            max_data_segments=8,
            beta=2,
        )
        corpus = SynthConfig(
            num_tables=300, num_rows=256, max_columns=3, num_clusters=16, seed=seed
        )
        scorer = FCMScorer(trained_fixture_model(config))
        tables = list(synth_tables(corpus))
        scorer.index_repository(tables)
        ids = [table.table_id for table in tables]
        clusters = corpus.num_clusters
        precision, rank_frac = [], []
        for source, chart in synth_query_charts(corpus, 16):
            scores = scorer.score_chart_batch(chart, table_ids=ids)
            ranked = sorted(range(len(ids)), key=lambda i: scores[ids[i]], reverse=True)
            precision.append(np.mean([i % clusters == source % clusters for i in ranked[:10]]))
            rank_frac.append(ranked.index(source) / len(ranked))
        assert np.mean(precision) >= 0.4, precision
        assert np.mean(rank_frac) <= 0.15, rank_frac

