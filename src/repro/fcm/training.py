"""FCM training: example construction, ground-truth relevance, training loop.

Training follows Sec. V-E of the paper:

* training triplets ``(V_i, D_i, T_i)`` come from the training split of the
  corpus — the chart ``V_i`` is rendered from the table ``T_i`` using its
  visualization spec, optionally through a sampled aggregation operator;
* negatives are drawn from the mini-batch with a configurable strategy
  (semi-hard by default) using the ground-truth relevance ``Rel(D, T)``,
  which is available during training because the underlying data is known;
* the objective is the class-balanced binary cross-entropy of Eq. 2,
  optimised with Adam.

Each minibatch's loss is computed in a **single stacked forward/backward**
(:meth:`FCMTrainer._batch_loss`, the only loss): all charts are encoded in one
chart-encoder call, every distinct table in one dataset-encoder call, and the
(positive + negatives) pairs are zero-padded and scored by one
:meth:`FCMModel.match_pairs` forward.  The per-pair loop it replaced is the
oracle of ``tests/test_batched_training.py``.

``Rel(D, T)`` is computed **on demand**, for the (example, batch-table) pairs
a minibatch ranks and for none under ``strategy="random"``; the process-wide
memo (:func:`repro.relevance.relevance_cache`) makes a pair met again — a
later epoch, another strategy or ``N-`` over the same data — a lookup.
:func:`relevance_matrix` is the eager examples x tables form: the oracle, and
how a benchmark warms the memo outside its timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart, render_chart_for_table
from ..data.aggregation import AggregationSpec, sample_aggregation_spec
from ..data.column import Column
from ..data.corpus import CorpusRecord
from ..data.table import DataSeries, Table, UnderlyingData
from ..nn import Adam, GradientClipper, balanced_binary_cross_entropy, pad_stack
from ..obs import get_logger
from ..relevance import relevance_cache, relevances
from ..vision.extractor import VisualElementExtractor
from .config import FCMConfig
from .model import FCMModel
from .preprocessing import (
    ChartInput,
    TableInput,
    prepare_chart_input,
    prepare_table_input,
    resample_series,
)
from .sampling import NEGATIVE_STRATEGIES, batch_indices, select_negatives_batch

_log = get_logger("repro.fcm.training")


# --------------------------------------------------------------------------- #
# Training examples
# --------------------------------------------------------------------------- #
@dataclass
class TrainingExample:
    """One training triplet ``(V, D, T)`` in model-ready form."""

    chart_input: ChartInput
    underlying: UnderlyingData
    table_id: str
    num_lines: int
    aggregation: Optional[AggregationSpec] = None
    chart: Optional[LineChart] = None

    @property
    def is_aggregated(self) -> bool:
        return self.aggregation is not None and not self.aggregation.is_identity


@dataclass
class TrainingData:
    """Everything the trainer needs: examples plus the candidate tables."""

    examples: List[TrainingExample]
    tables: Dict[str, Table]
    table_inputs: Dict[str, TableInput]

    @property
    def table_ids(self) -> List[str]:
        return list(self.tables.keys())


def build_training_data(
    records: Sequence[CorpusRecord],
    config: FCMConfig,
    aggregated_fraction: float = 0.5,
    seed: int = 0,
    keep_charts: bool = False,
) -> TrainingData:
    """Render charts for the training records and preprocess everything.

    Parameters
    ----------
    aggregated_fraction:
        Probability that a record's chart is rendered through a sampled
        aggregation operator (the paper trains on a mixture of DA and non-DA
        charts).
    keep_charts:
        Keep the rendered :class:`LineChart` objects on the examples (useful
        for diagnostics; costs memory).
    """
    extractor = VisualElementExtractor()
    rng = np.random.default_rng(seed)
    examples: List[TrainingExample] = []
    tables: Dict[str, Table] = {}
    table_inputs: Dict[str, TableInput] = {}

    for record in records:
        if record.spec.chart_type != "line":
            continue
        table = record.table
        tables[table.table_id] = table
        table_inputs[table.table_id] = prepare_table_input(table, config)

        aggregation: Optional[AggregationSpec] = None
        if rng.random() < aggregated_fraction:
            aggregation = sample_aggregation_spec(table.num_rows, rng)
        chart = render_chart_for_table(
            table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            aggregation=aggregation,
            spec=config.chart_spec,
        )
        elements = extractor.extract(chart)
        if elements.num_lines == 0:
            continue
        chart_input = prepare_chart_input(chart, elements, config)
        examples.append(
            TrainingExample(
                chart_input=chart_input,
                underlying=chart.underlying,
                table_id=table.table_id,
                num_lines=chart.num_lines,
                aggregation=aggregation,
                chart=chart if keep_charts else None,
            )
        )
    if not examples:
        raise ValueError("no line-chart training examples could be constructed")
    return TrainingData(examples=examples, tables=tables, table_inputs=table_inputs)


# --------------------------------------------------------------------------- #
# Ground-truth relevance (downsampled for training-time tractability)
# --------------------------------------------------------------------------- #
def _resampled_data(data: UnderlyingData, max_points: int) -> UnderlyingData:
    series = []
    for s in data:
        y = resample_series(s.y, min(max_points, len(s.y)))
        series.append(DataSeries(x=np.arange(len(y), dtype=np.float64), y=y, name=s.name))
    return UnderlyingData(series=series)


def _resampled_table(table: Table, max_points: int) -> Table:
    columns = [
        Column(c.name, resample_series(c.values, min(max_points, len(c))), role=c.role)
        for c in table.columns
    ]
    return Table(table.table_id, columns)


def ground_truth_relevances(
    datas: Sequence[UnderlyingData],
    tables: Sequence[Table],
    max_points: int = 48,
) -> np.ndarray:
    """``Rel(D, T)`` of every ``(data, table)``, on series resampled to at
    most ``max_points``: a ``(len(datas), len(tables))`` array.

    Resampling keeps the DTW-based ground truth tractable during training and
    benchmark construction; the DTW is still exact on the resampled series.

    Scores are memoised per ``(data, table, max_points)`` content
    fingerprint in the process-wide :func:`repro.relevance.relevance_cache`,
    so recomputing the same pair across negative-sampling strategies or
    epochs (the dominant fixture cost of the Figure 5 experiment) is a hash
    lookup.  The pairs are looked up row by row; every missed pair is
    computed in one :func:`repro.relevance.relevances` sweep, each
    series and column resampled once.  Hits and misses count what one lookup
    per pair in that order would — a pair met twice in one call is a miss,
    then a hit.
    """
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")
    cache = relevance_cache()
    scores = np.zeros((len(datas), len(tables)))
    missed: Dict[Tuple, List[Tuple[int, int]]] = {}  # key -> cells it fills
    for i, data in enumerate(datas):
        for j, table in enumerate(tables):
            key = cache.key(data, table, max_points)
            if key in missed:
                cache.hits += 1
                missed[key].append((i, j))
                continue
            hit = cache.get(key)
            if hit is None:
                missed[key] = [(i, j)]
            else:
                scores[i, j] = hit
    if not missed:
        return scores

    firsts = [cells[0] for cells in missed.values()]
    small_datas = {i: _resampled_data(datas[i], max_points) for i in {i for i, _ in firsts}}
    small_tables = {j: _resampled_table(tables[j], max_points) for j in {j for _, j in firsts}}
    computed = relevances([(small_datas[i], small_tables[j]) for i, j in firsts])
    for (key, cells), score in zip(missed.items(), computed.tolist()):
        for i, j in cells:
            scores[i, j] = score
        cache.put(key, score)
    return scores


def ground_truth_relevance(data: UnderlyingData, table: Table, max_points: int = 48) -> float:
    """``Rel(D, T)`` of one pair: :func:`ground_truth_relevances` of 1 x 1."""
    return float(ground_truth_relevances([data], [table], max_points)[0, 0])


def relevance_matrix(
    examples: Sequence[TrainingExample],
    tables: Dict[str, Table],
    max_points: int = 48,
) -> Tuple[np.ndarray, List[str]]:
    """Ground-truth relevance of every example against every table.

    Returns the matrix (``num_examples x num_tables``) and the table-id order
    of its columns: one :func:`ground_truth_relevances` call per example
    (one sweep over that row's missed cells, which bounds its memory), and
    so into the process-wide memo.  The trainer does not call it — it asks
    for the pairs its batches rank, whose values are these entries bitwise;
    this is the oracle, and the way to warm the memo ahead of a timed run.
    """
    table_ids = list(tables.keys())
    row_tables = [tables[table_id] for table_id in table_ids]
    matrix = np.zeros((len(examples), len(table_ids)))
    for i, example in enumerate(examples):
        matrix[i] = ground_truth_relevances(
            [example.underlying], row_tables, max_points=max_points
        )[0]
    return matrix, table_ids


# --------------------------------------------------------------------------- #
# Trainer
# --------------------------------------------------------------------------- #
@dataclass
class TrainerConfig:
    """Optimisation hyper-parameters (Sec. VII-B, scaled)."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-3
    num_negatives: int = 3
    strategy: str = "semi-hard"
    grad_clip: Optional[float] = 5.0
    seed: int = 0
    relevance_max_points: int = 48

    def __post_init__(self) -> None:
        if self.strategy not in NEGATIVE_STRATEGIES:
            raise ValueError(
                f"unknown negative-sampling strategy {self.strategy!r}; "
                f"expected one of {NEGATIVE_STRATEGIES}"
            )
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.num_negatives < 1:
            raise ValueError("num_negatives (N-) must be >= 1")
        if self.relevance_max_points < 2:
            raise ValueError("relevance_max_points must be >= 2")


@dataclass
class EpochStats:
    """Per-epoch training statistics."""

    epoch: int
    loss: float
    seconds: float
    eval_metric: Optional[float] = None


@dataclass
class TrainingHistory:
    """The full training trace of one model."""

    epochs: List[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]

    @property
    def eval_metrics(self) -> List[Optional[float]]:
        return [e.eval_metric for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss


class FCMTrainer:
    """Trains an :class:`FCMModel` on prepared :class:`TrainingData`."""

    def __init__(
        self,
        model: FCMModel,
        trainer_config: Optional[TrainerConfig] = None,
    ) -> None:
        self.model = model
        self.config = trainer_config or TrainerConfig()
        self._clipper = (
            GradientClipper(self.config.grad_clip) if self.config.grad_clip else None
        )

    def train(
        self,
        data: TrainingData,
        eval_fn: Optional[Callable[[FCMModel], float]] = None,
    ) -> TrainingHistory:
        """Run the training loop.

        Parameters
        ----------
        data:
            Output of :func:`build_training_data`.
        eval_fn:
            Optional callback evaluated after every epoch (e.g. validation
            prec@k); its value is recorded in the history.
        """
        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        rng = np.random.default_rng(self.config.seed)
        history = TrainingHistory()

        self.model.train()
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            epoch_losses: List[float] = []
            for batch in batch_indices(len(data.examples), self.config.batch_size, rng):
                batch_table_ids = sorted({data.examples[i].table_id for i in batch})
                loss = self._batch_loss([int(i) for i in batch], batch_table_ids, data, rng)
                if loss is None:
                    continue
                optimizer.zero_grad()
                loss.backward()
                if self._clipper is not None:
                    self._clipper.clip(self.model.parameters())
                optimizer.step()
                epoch_losses.append(loss.item())
            elapsed = time.perf_counter() - start
            metric = None
            if eval_fn is not None:
                self.model.eval()
                metric = float(eval_fn(self.model))
                self.model.train()
            stats = EpochStats(
                epoch=epoch,
                loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                seconds=elapsed,
                eval_metric=metric,
            )
            history.epochs.append(stats)
            _log.info(
                "epoch_finished",
                epoch=stats.epoch,
                total_epochs=self.config.epochs,
                loss=stats.loss,
                seconds=stats.seconds,
                eval_metric=stats.eval_metric,
                batches=len(epoch_losses),
            )
        self.model.eval()
        return history

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _select_batch_negatives(
        self,
        batch_example_indices: Sequence[int],
        batch_table_ids: List[str],
        data: TrainingData,
        rng: np.random.Generator,
    ) -> List[List[int]]:
        """Negative positions (into ``batch_table_ids``) for every example.

        ``Rel(D, T)`` is computed here (or found in the memo) for each
        example against the tables of this batch — the pairs the strategy
        ranks, nothing else; ``random`` ranks nothing and computes none.
        """
        if self.config.strategy == "random":
            rows = [np.zeros(len(batch_table_ids))] * len(batch_example_indices)
        else:
            rows = ground_truth_relevances(
                [data.examples[example_index].underlying for example_index in batch_example_indices],
                [data.tables[table_id] for table_id in batch_table_ids],
                max_points=self.config.relevance_max_points,
            )
        positives = [
            batch_table_ids.index(data.examples[example_index].table_id)
            for example_index in batch_example_indices
        ]
        return select_negatives_batch(
            rows,
            positives,
            self.config.num_negatives,
            strategy=self.config.strategy,
            rng=rng,
        )

    def _batch_loss(
        self,
        batch_example_indices: Sequence[int],
        batch_table_ids: List[str],
        data: TrainingData,
        rng: np.random.Generator,
    ):
        """Contrastive loss of one minibatch in a single stacked forward.

        1. every chart in the batch is encoded through *one* stacked
           chart-encoder call, every **distinct** table through *one*
           dataset-encoder call — a per-pair loop re-encodes the same table
           for every pair that touches it;
        2. each example's chart representation is paired with its positive
           and each sampled negative; the ragged pair list is zero-padded and
           stacked (:func:`repro.nn.pad_stack`, differentiable) into
           ``(P, M, N1, K)`` / ``(P, NC, N2, K)`` batches;
        3. one :meth:`FCMModel.match_pairs` forward scores all ``P`` pairs,
           and the class-balanced BCE of Eq. 2 over those scores is the
           single tensor the caller backpropagates through.

        Loss and parameter gradients match the per-pair loop kept in
        ``tests/test_batched_training.py`` within floating-point accuracy
        (pinned at 1e-6); only with ``dropout > 0`` do they diverge, because
        each forward samples its own dropout masks.
        """
        negatives = self._select_batch_negatives(
            batch_example_indices, batch_table_ids, data, rng
        )
        pair_slots: List[int] = []  # index into the batch's chart list, per pair
        pair_table_ids: List[str] = []
        labels: List[float] = []
        for slot, example_index in enumerate(batch_example_indices):
            example = data.examples[example_index]
            pair_slots.append(slot)
            pair_table_ids.append(example.table_id)
            labels.append(1.0)
            for pos in negatives[slot]:
                pair_slots.append(slot)
                pair_table_ids.append(batch_table_ids[pos])
                labels.append(0.0)
        if not pair_table_ids:
            return None

        chart_reprs = self.model.encode_chart_batch(
            [data.examples[i].chart_input for i in batch_example_indices]
        )
        distinct_ids = list(dict.fromkeys(pair_table_ids))
        table_reprs = dict(
            zip(
                distinct_ids,
                self.model.encode_table_batch(
                    [data.table_inputs[table_id] for table_id in distinct_ids]
                ),
            )
        )

        chart_batch, chart_mask = pad_stack([chart_reprs[slot] for slot in pair_slots])
        table_batch, table_mask = pad_stack(
            [table_reprs[table_id] for table_id in pair_table_ids]
        )
        predictions = self.model.match_pairs(
            chart_batch, table_batch, chart_mask[..., 0], table_mask[..., 0]
        )
        return balanced_binary_cross_entropy(
            predictions.reshape(-1), np.asarray(labels)
        )


def train_fcm(
    records: Sequence[CorpusRecord],
    config: Optional[FCMConfig] = None,
    trainer_config: Optional[TrainerConfig] = None,
    aggregated_fraction: float = 0.5,
    eval_fn: Optional[Callable[[FCMModel], float]] = None,
) -> Tuple[FCMModel, TrainingHistory, TrainingData]:
    """End-to-end convenience: build data, create the model, train it."""
    config = config or FCMConfig()
    model = FCMModel(config)
    data = build_training_data(
        records,
        config,
        aggregated_fraction=aggregated_fraction,
        seed=(trainer_config.seed if trainer_config else 0),
    )
    trainer = FCMTrainer(model, trainer_config)
    history = trainer.train(data, eval_fn=eval_fn)
    return model, history, data
