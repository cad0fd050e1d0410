"""Tests for negative sampling, the FCM trainer and the query-time scorer.

``python tests/test_fcm_training_scoring.py`` (``PYTHONPATH=<src>:tests``)
records ``fixtures/training_golden.json`` — every epoch loss and parameter
sum of three small training runs, as ``float.hex`` — from whatever ``src`` is
on the path; it was recorded at the parent of the PR that made relevance
on-demand (eager matrix, process pool still in place) and is reproduced
exactly by the trainer that computes only the pairs its batches rank.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.charts import render_chart_for_table
from repro.data import CorpusConfig, filter_line_chart_records, generate_corpus
from repro.fcm import (
    FCMConfig,
    FCMModel,
    FCMScorer,
    FCMTrainer,
    TrainerConfig,
    build_scorer_for_repository,
    build_training_data,
    ground_truth_relevance,
    relevance_matrix,
    select_negatives,
    train_fcm,
)
from repro.fcm.sampling import batch_indices
from repro.nn import save_state_dict, load_state_dict
from repro.relevance import clear_relevance_cache, relevance_cache, relevance_cache_info

from conftest import active_dtype

TRAINING_GOLDEN = Path(__file__).parent / "fixtures" / "training_golden.json"
GOLDEN_STRATEGIES = ("semi-hard", "random", "hard")


def _training_corpus(config: FCMConfig, num_records: int = 16):
    """``num_records`` line-chart examples over as many tables, prepared."""
    records = filter_line_chart_records(
        generate_corpus(
            CorpusConfig(
                num_records=num_records,
                min_rows=80,
                max_rows=120,
                non_line_fraction=0.0,
                duplicate_fraction=0.0,
                seed=5,
            )
        )
    )
    data = build_training_data(records, config, aggregated_fraction=0.5, seed=0)
    assert len(data.examples) == len(data.tables) == num_records
    return data


def _golden_run(strategy: str):
    """Two epochs of the smallest configuration: losses and parameter sums."""
    config = FCMConfig(
        embed_dim=16,
        num_heads=2,
        num_layers=1,
        data_segment_size=32,
        beta=2,
        max_data_segments=4,
        dtype="float64",
    )
    data = _training_corpus(config)
    model = FCMModel(config)
    trainer_config = TrainerConfig(
        epochs=2, batch_size=8, num_negatives=2, strategy=strategy, relevance_max_points=24
    )
    history = FCMTrainer(model, trainer_config).train(data)
    return {
        "losses": [float(loss).hex() for loss in history.losses],
        "parameter_sums": {
            name: float(p.data.sum(dtype=np.float64)).hex()
            for name, p in model.named_parameters()
        },
    }


class TestNegativeSampling:
    def setup_method(self):
        self.relevance = np.array([0.9, 0.1, 0.5, 0.7, 0.3, 0.6])
        self.positive = 0

    def test_hard_selects_highest(self):
        chosen = select_negatives(self.relevance, self.positive, 2, strategy="hard")
        assert chosen == [3, 5]

    def test_easy_selects_lowest(self):
        chosen = select_negatives(self.relevance, self.positive, 2, strategy="easy")
        assert set(chosen) == {1, 4}

    def test_semi_hard_selects_middle(self):
        chosen = select_negatives(self.relevance, self.positive, 2, strategy="semi-hard")
        ranked = [3, 5, 2, 4, 1]
        middle = ranked[len(ranked) // 2]
        assert middle in chosen

    def test_random_is_reproducible_and_excludes_positive(self):
        rng = np.random.default_rng(0)
        chosen = select_negatives(self.relevance, self.positive, 3, strategy="random", rng=rng)
        assert self.positive not in chosen and len(chosen) == 3

    def test_clipping_and_validation(self):
        assert len(select_negatives(self.relevance, 0, 10)) == 5
        assert select_negatives(np.array([1.0]), 0, 3) == []
        with pytest.raises(ValueError):
            select_negatives(self.relevance, 0, 2, strategy="bogus")

    def test_batch_indices_cover_everything(self):
        batches = batch_indices(10, 3, np.random.default_rng(0))
        flattened = sorted(int(i) for batch in batches for i in batch)
        assert flattened == list(range(10))
        with pytest.raises(ValueError):
            batch_indices(10, 0, np.random.default_rng(0))


class TestTrainingData:
    def test_build_training_data(self, small_records, tiny_fcm_config):
        data = build_training_data(small_records[:5], tiny_fcm_config, aggregated_fraction=0.5, seed=0)
        assert len(data.examples) == 5
        assert set(data.table_inputs) == set(data.tables)
        aggregated = [ex for ex in data.examples if ex.is_aggregated]
        plain = [ex for ex in data.examples if not ex.is_aggregated]
        assert aggregated or plain  # at least one of each kind is likely but not guaranteed

    def test_ground_truth_relevance_prefers_source(self, small_records):
        record = small_records[0]
        chart = render_chart_for_table(
            record.table, list(record.spec.y_columns), x_column=record.spec.x_column
        )
        own = ground_truth_relevance(chart.underlying, record.table, max_points=32)
        other = ground_truth_relevance(chart.underlying, small_records[1].table, max_points=32)
        assert own >= other

    def test_relevance_matrix_shape_and_diagonal_dominance(self, small_records, tiny_fcm_config):
        data = build_training_data(small_records[:4], tiny_fcm_config, aggregated_fraction=0.0, seed=0)
        matrix, order = relevance_matrix(data.examples, data.tables, max_points=32)
        assert matrix.shape == (4, 4)
        for i, example in enumerate(data.examples):
            j = order.index(example.table_id)
            assert matrix[i, j] == pytest.approx(matrix[i].max(), rel=1e-6)


def _misses() -> int:
    return relevance_cache_info().misses


@pytest.mark.slow
class TestRelevanceOnDemand:
    """The trainer computes ``Rel(D, T)`` for the pairs its batches rank."""

    EPOCHS, BATCH, MAX_POINTS = 2, 4, 16

    @pytest.fixture(scope="class")
    def data(self, tiny_fcm_config):
        return _training_corpus(tiny_fcm_config)

    def _train(self, data, tiny_fcm_config, strategy):
        config = TrainerConfig(
            epochs=self.EPOCHS,
            batch_size=self.BATCH,
            num_negatives=2,
            strategy=strategy,
            relevance_max_points=self.MAX_POINTS,
        )
        return FCMTrainer(FCMModel(tiny_fcm_config), config).train(data)

    def test_random_computes_no_relevance(self, data, tiny_fcm_config):
        clear_relevance_cache()
        history = self._train(data, tiny_fcm_config, "random")
        assert np.isfinite(history.final_loss)
        info = relevance_cache_info()
        assert (info.misses, info.hits, info.size) == (0, 0, 0)

    def test_semi_hard_computes_only_the_pairs_its_batches_rank(self, data, tiny_fcm_config):
        examples, tables = len(data.examples), len(data.tables)
        clear_relevance_cache()
        self._train(data, tiny_fcm_config, "semi-hard")
        computed = _misses()
        assert 0 < computed <= examples * self.BATCH * self.EPOCHS
        assert computed < examples * tables
        # What was memoised is, bit for bit, the eager matrix's entry.
        cache = relevance_cache()
        memoised = {
            (i, table_id): cache.get(cache.key(example.underlying, table, self.MAX_POINTS))
            for i, example in enumerate(data.examples)
            for table_id, table in data.tables.items()
        }
        assert sum(value is not None for value in memoised.values()) == computed
        clear_relevance_cache()
        matrix, order = relevance_matrix(data.examples, data.tables, max_points=self.MAX_POINTS)
        assert _misses() == examples * tables
        for (i, table_id), value in memoised.items():
            if value is not None:
                assert value.hex() == float(matrix[i, order.index(table_id)]).hex()

    def test_ranking_strategies_from_one_seed_read_the_same_pairs(self, data, tiny_fcm_config):
        clear_relevance_cache()
        self._train(data, tiny_fcm_config, "semi-hard")
        computed = _misses()
        for strategy in ("hard", "easy"):
            self._train(data, tiny_fcm_config, strategy)
            assert _misses() == computed, strategy

    @pytest.mark.skipif(
        active_dtype() != np.float64, reason="the golden was recorded under float64"
    )
    @pytest.mark.parametrize("strategy", GOLDEN_STRATEGIES)
    def test_losses_and_weights_are_the_eager_trainers(self, strategy):
        """Recorded with the eager examples x tables matrix (see the module
        docstring); which pairs get computed, and when, moves no bit."""
        golden = json.loads(TRAINING_GOLDEN.read_text())["runs"][strategy]
        clear_relevance_cache()
        assert _golden_run(strategy) == golden


@pytest.mark.slow
class TestTrainer:
    @pytest.fixture(scope="class")
    def trained(self, small_records, tiny_fcm_config):
        model, history, data = train_fcm(
            small_records[:5],
            config=tiny_fcm_config,
            trainer_config=TrainerConfig(epochs=2, batch_size=4, num_negatives=2, learning_rate=2e-3),
            aggregated_fraction=0.5,
        )
        return model, history, data

    def test_history_has_expected_epochs(self, trained):
        _, history, _ = trained
        assert len(history.epochs) == 2
        assert all(np.isfinite(loss) for loss in history.losses)
        assert history.final_loss == history.losses[-1]

    def test_parameters_changed_during_training(self, small_records, tiny_fcm_config):
        data = build_training_data(small_records[:4], tiny_fcm_config, seed=0)
        model = FCMModel(tiny_fcm_config)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        trainer = FCMTrainer(model, TrainerConfig(epochs=1, batch_size=4, num_negatives=1))
        trainer.train(data)
        changed = any(
            not np.allclose(before[name], p.data) for name, p in model.named_parameters()
        )
        assert changed

    def test_eval_callback_recorded(self, small_records, tiny_fcm_config):
        data = build_training_data(small_records[:4], tiny_fcm_config, seed=0)
        model = FCMModel(tiny_fcm_config)
        trainer = FCMTrainer(model, TrainerConfig(epochs=2, batch_size=4, num_negatives=1))
        history = trainer.train(data, eval_fn=lambda m: 0.5)
        assert history.eval_metrics == [0.5, 0.5]

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(strategy="bogus")
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(num_negatives=0)

    def test_model_round_trips_through_serialization(self, trained, tmp_path):
        model, _, data = trained
        example = data.examples[0]
        score_before = model.relevance(example.chart_input, data.table_inputs[example.table_id])
        path = save_state_dict(model, tmp_path / "fcm.npz")
        clone = FCMModel(model.config)
        load_state_dict(clone, path)
        score_after = clone.relevance(example.chart_input, data.table_inputs[example.table_id])
        assert score_after == pytest.approx(score_before, rel=1e-9)


class TestScorer:
    @pytest.fixture(scope="class")
    def scorer_setup(self, small_records, tiny_fcm_config):
        model = FCMModel(tiny_fcm_config)
        tables = [r.table for r in small_records[:6]]
        from repro.data import DataRepository

        repository = DataRepository(tables)
        scorer = build_scorer_for_repository(model, repository)
        record = small_records[0]
        chart = render_chart_for_table(
            record.table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            spec=tiny_fcm_config.chart_spec,
        )
        return scorer, chart, tables

    def test_indexing_is_idempotent(self, scorer_setup):
        scorer, _, tables = scorer_setup
        count = len(scorer.indexed_table_ids)
        scorer.index_table(tables[0])
        assert len(scorer.indexed_table_ids) == count

    def test_scores_cover_all_tables_and_are_bounded(self, scorer_setup):
        scorer, chart, tables = scorer_setup
        scores = scorer.score_chart(chart)
        assert set(scores) == {t.table_id for t in tables}
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_rank_ordering_and_top_k(self, scorer_setup):
        scorer, chart, _ = scorer_setup
        ranked = scorer.rank(chart)
        values = [score for _, score in ranked]
        assert values == sorted(values, reverse=True)
        assert len(scorer.top_k_ids(chart, k=3)) == 3

    def test_unknown_table_raises(self, scorer_setup):
        scorer, _, _ = scorer_setup
        with pytest.raises(KeyError):
            scorer.encoded_table("nope")

    def test_subset_scoring(self, scorer_setup):
        scorer, chart, tables = scorer_setup
        subset = [tables[0].table_id, tables[1].table_id]
        scores = scorer.score_chart(chart, table_ids=subset)
        assert set(scores) == set(subset)


if __name__ == "__main__":
    import subprocess

    import repro.fcm.training as training_module

    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=Path(training_module.__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    golden = {
        "recorded_at": revision,
        "runs": {strategy: _golden_run(strategy) for strategy in GOLDEN_STRATEGIES},
    }
    assert len({json.dumps(run) for run in golden["runs"].values()}) == len(GOLDEN_STRATEGIES)
    TRAINING_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {TRAINING_GOLDEN} at {revision}")
