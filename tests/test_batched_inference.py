"""Equivalence and perf harness for the batched no-grad inference engine.

Three contracts are pinned down here:

* **no-grad forward == grad forward** — disabling graph construction must not
  change a single forward value, only skip the bookkeeping;
* **batched == per-pair** — ``FCMScorer.score_chart_batch`` (one stacked
  matcher forward over all candidates) must reproduce the per-pair loop's
  scores within 1e-8 and its rankings exactly, across matcher variants,
  candidate-set sizes and chunkings;
* **batched is actually faster** — a micro-benchmark over a 50-table
  repository asserts the advertised ≥3× speed-up (skippable on constrained
  machines via ``REPRO_SKIP_PERF_TESTS=1``).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMConfig
from repro.fcm.model import FCMModel
from repro.fcm.preprocessing import prepare_table_input
from repro.fcm.scorer import FCMScorer, pad_candidate_batch
from repro.nn import Tensor, enable_grad, is_grad_enabled, no_grad, pad_stack

from conftest import dtype_tol


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
    """Small synthetic tables with varying column counts/lengths."""
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
    return _make_repository(12)


@pytest.fixture(scope="module")
def query_chart(repository):
    table = repository[0]
    lines = [c.name for c in table.columns if c.role == "y"][:2]
    return render_chart_for_table(table, lines, x_column="x", spec=ChartSpec())


class TestNoGradMode:
    def test_no_grad_matches_grad_forward_values(self, repository, query_chart):
        for use_hcman, enable_da in [(True, True), (False, True), (True, False)]:
            model = FCMModel(
                _tiny_config(use_hcman=use_hcman, enable_da_layers=enable_da)
            )
            model.eval()
            scorer = FCMScorer(model)
            chart_input = scorer.prepare_query(query_chart)
            table_input = prepare_table_input(repository[1], model.config)
            grad_out = model.forward(chart_input, table_input)
            with no_grad():
                no_grad_out = model.forward(chart_input, table_input)
            # Same NumPy expressions run either way: values are identical.
            assert no_grad_out.item() == grad_out.item()
            assert grad_out.requires_grad
            assert not no_grad_out.requires_grad

    def test_no_grad_builds_no_graph(self):
        param = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            out = (param @ param).sum()
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
        with pytest.raises(RuntimeError):
            out.backward()

    def test_no_grad_nests_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_instance_is_reentrant(self):
        ng = no_grad()
        with ng:
            with ng:
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_no_grad_as_decorator(self):
        param = Tensor(np.ones(4), requires_grad=True)

        @no_grad()
        def evaluate():
            return (param * 2.0).sum()

        out = evaluate()
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_module_inference_restores_training_mode(self):
        model = FCMModel(_tiny_config())
        model.train(True)
        with model.inference() as m:
            assert m is model
            assert not model.training
            assert not is_grad_enabled()
        assert model.training
        assert is_grad_enabled()

    def test_overlapping_blocks_on_two_threads_leave_each_switch_its_own(self):
        """Thread A enters ``no_grad``, B enters, A exits, B exits: B stays
        untracked until its own exit, the main thread records throughout and
        every thread records once both have left."""
        steps = [threading.Event() for _ in range(3)]
        seen = {}

        def thread_a():
            with no_grad():
                seen["a inside"] = is_grad_enabled()
                steps[0].set()
                steps[1].wait(timeout=30)
            seen["a after"] = is_grad_enabled()
            steps[2].set()

        def thread_b():
            steps[0].wait(timeout=30)
            with no_grad():
                steps[1].set()
                steps[2].wait(timeout=30)
                seen["b after a left"] = is_grad_enabled()
                seen["b records"] = (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad
            seen["b after"] = is_grad_enabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        steps[0].wait(timeout=30)
        seen["main while a inside"] = is_grad_enabled()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert seen == {
            "a inside": False,
            "main while a inside": True,
            "b after a left": False,
            "b records": False,
            "a after": True,
            "b after": True,
        }
        assert is_grad_enabled()
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(is_grad_enabled()))
        thread.start()
        thread.join(timeout=30)
        assert fresh == [True]

    def test_gradients_still_flow_outside_no_grad(self):
        param = Tensor(np.ones(5), requires_grad=True)
        (param * 3.0).sum().backward()
        np.testing.assert_allclose(param.grad, np.full(5, 3.0))


class TestBatchedEquivalence:
    @pytest.fixture(
        scope="class",
        params=["hcman+da", "hcman-only", "averaged"],
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

    def test_scores_match_per_pair_loop(self, scorer, query_chart):
        loop = scorer.score_chart(query_chart)
        batched = scorer.score_chart_batch(query_chart)
        assert set(loop) == set(batched)
        for table_id, score in loop.items():
            assert batched[table_id] == pytest.approx(score, abs=dtype_tol(1e-8, 5e-5))

    @pytest.mark.parametrize("subset_size", [1, 3, 7])
    def test_candidate_subsets_match(self, scorer, query_chart, subset_size):
        ids = scorer.indexed_table_ids[:subset_size]
        loop = scorer.score_chart(query_chart, table_ids=ids)
        batched = scorer.score_chart_batch(query_chart, table_ids=ids)
        for table_id in ids:
            assert batched[table_id] == pytest.approx(loop[table_id], abs=dtype_tol(1e-8, 5e-5))

    def test_rankings_identical(self, scorer, query_chart):
        loop_rank = sorted(
            scorer.score_chart(query_chart).items(),
            key=lambda item: item[1],
            reverse=True,
        )
        batched_rank = scorer.rank(query_chart)
        assert [tid for tid, _ in loop_rank] == [tid for tid, _ in batched_rank]

    def test_chunked_batches_match_single_batch(self, scorer, query_chart):
        full = scorer.score_chart_batch(query_chart, batch_size=None)
        chunked = scorer.score_chart_batch(query_chart, batch_size=3)
        for table_id, score in full.items():
            assert chunked[table_id] == pytest.approx(score, abs=dtype_tol(1e-8, 5e-5))

    def test_empty_candidate_set(self, scorer, query_chart):
        assert scorer.score_chart_batch(query_chart, table_ids=[]) == {}

    def test_match_batch_on_ragged_shapes(self):
        """Direct matcher-level equivalence across padded shapes: one chart
        beside the batch, handed to ``match_pairs`` with a leading axis of 1."""
        rng = np.random.default_rng(9)
        for use_hcman in (True, False):
            model = FCMModel(_tiny_config(use_hcman=use_hcman))
            model.eval()
            chart = Tensor(rng.standard_normal((2, 4, 16)))
            reps = [
                rng.standard_normal((nc, n2, 16))
                for nc, n2 in [(1, 1), (3, 2), (2, 4), (4, 3)]
            ]
            expected = [float(model.match(chart, Tensor(rep)).item()) for rep in reps]
            batch, segment_mask, _ = pad_candidate_batch(reps)
            with no_grad():
                got = model.match_pairs(
                    chart.expand_dims(0), Tensor(batch), np.ones((1, 2, 4), dtype=bool), segment_mask
                ).numpy()
            assert got.shape == (len(reps),)
            np.testing.assert_allclose(got, expected, atol=dtype_tol(1e-8, 5e-5))

    @pytest.mark.parametrize("use_hcman", [True, False])
    def test_broadcast_chart_gradient_is_the_sum_over_pairs(self, use_hcman):
        """With gradients on, the leading-1 chart receives the gradient of
        every pair it was broadcast into (``_unbroadcast`` on the chart
        operand) — including from a batch that pads a whole column."""
        rng = np.random.default_rng(10)
        model = FCMModel(_tiny_config(use_hcman=use_hcman, dtype="float64"))
        model.eval()
        chart_values = rng.standard_normal((3, 4, 16))
        reps = [
            rng.standard_normal((nc, n2, 16))
            for nc, n2 in [(1, 2), (3, 1), (2, 4), (1, 1)]  # columns 2-3 padded for three
        ]
        batch, segment_mask, column_mask = pad_candidate_batch(reps)
        assert not column_mask.all() and not segment_mask[column_mask].all()

        expected_scores, expected_grad = [], np.zeros_like(chart_values)
        for rep in reps:
            chart = Tensor(chart_values, requires_grad=True)
            score = model.match(chart, Tensor(rep))
            score.backward()
            expected_scores.append(score.item())
            expected_grad += chart.grad

        chart = Tensor(chart_values, requires_grad=True)
        scores = model.match_pairs(
            chart.expand_dims(0), Tensor(batch), np.ones((1, 3, 4), dtype=bool), segment_mask
        )
        scores.sum().backward()
        np.testing.assert_allclose(scores.numpy(), expected_scores, atol=1e-12)
        assert chart.grad.shape == chart_values.shape
        assert np.abs(expected_grad).max() > 1e-6
        np.testing.assert_allclose(chart.grad, expected_grad, atol=1e-6, rtol=0)
        # The same chart tiled to P pairs (the trainer's layout) agrees.
        tiled, tiled_mask = pad_stack([Tensor(chart_values)] * len(reps))
        with no_grad():
            again = model.match_pairs(tiled, Tensor(batch), tiled_mask[..., 0], segment_mask)
        np.testing.assert_allclose(again.numpy(), scores.numpy(), atol=1e-12)

    def test_pad_candidate_batch_masks(self):
        reps = [np.ones((2, 3, 4)), np.ones((1, 2, 4))]
        batch, segment_mask, column_mask = pad_candidate_batch(reps)
        assert batch.shape == (2, 2, 3, 4)
        assert segment_mask.sum() == 2 * 3 + 1 * 2
        assert column_mask.tolist() == [[True, True], [True, False]]
        assert batch[1, 1].sum() == 0.0
        with pytest.raises(ValueError):
            pad_candidate_batch([])


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="perf regression thresholds disabled via REPRO_SKIP_PERF_TESTS=1 "
    "(constrained or heavily-loaded machine)",
)
class TestBatchedPerf:
    def test_batched_scoring_is_at_least_3x_faster_on_50_tables(self):
        repository = _make_repository(50, seed=23)
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        table = repository[0]
        chart = render_chart_for_table(
            table,
            [c.name for c in table.columns if c.role == "y"][:1],
            x_column="x",
            spec=ChartSpec(),
        )
        # Warm up both paths (query preparation is cached after this).
        loop_scores = scorer.score_chart(chart)
        batch_scores = scorer.score_chart_batch(chart)
        assert max(
            abs(loop_scores[tid] - batch_scores[tid]) for tid in loop_scores
        ) < dtype_tol(1e-8, 5e-5)

        def best_of(fn, repeats=3):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn(chart)
                timings.append(time.perf_counter() - start)
            return min(timings)

        per_pair_seconds = best_of(scorer.score_chart)
        batched_seconds = best_of(scorer.score_chart_batch)
        speedup = per_pair_seconds / batched_seconds
        assert speedup >= 3.0, (
            f"batched scoring only {speedup:.2f}x faster "
            f"({per_pair_seconds * 1e3:.1f} ms vs {batched_seconds * 1e3:.1f} ms)"
        )
