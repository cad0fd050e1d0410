"""Experiment harness: one runner per table/figure of the paper's evaluation.

Every runner consumes a :class:`~repro.bench.builder.Benchmark` plus a set of
trained :class:`~repro.baselines.base.DiscoveryMethod` instances and returns a
plain, JSON-serialisable structure with the same rows/columns the paper
reports.  FCM-backed methods score queries through the batched no-grad
inference path (:meth:`repro.fcm.scorer.FCMScorer.score_chart_batch`), which
is score-equivalent to the per-pair loop but amortises the matcher over all
candidate tables at once.  The ``benchmarks/`` directory contains one pytest-benchmark target
per runner; ``EXPERIMENTS.md`` records paper-vs-measured values.

The experiment *scale* (corpus size, training epochs, k, …) is factored into
:class:`ExperimentScale` with two presets:

* :func:`smoke_scale` — minutes-of-seconds sized, used by the unit tests;
* :func:`default_scale` — the configuration used for the reported benchmark
  run (tens of minutes on a laptop CPU).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.ablations import FCMMethod, train_fcm_variant
from ..baselines.base import DiscoveryMethod
from ..baselines.cml import CMLConfig, CMLMethod, train_cml
from ..baselines.de_ln import DELNMethod, OptLNMethod
from ..baselines.linenet import LineNetConfig, train_linenet
from ..baselines.qetch import QetchConfig, QetchStarMethod
from ..data.aggregation import window_bucket
from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.scorer import FCMScorer
from ..fcm.training import (
    FCMTrainer,
    TrainerConfig,
    build_training_data,
    train_fcm,
)
from ..index.hybrid import INDEXING_STRATEGIES, HybridQueryProcessor
from ..index.lsh import LSHConfig
from .builder import Benchmark, BenchmarkConfig, BenchmarkQuery, build_benchmark
from .metrics import ndcg_at_k, precision_at_k

LINE_BUCKETS = ("1", "2-4", "5-7", ">7")
AGGREGATION_OPERATORS_ORDER = ("min", "max", "sum", "avg")
WINDOW_BUCKETS = ("0-10", "20-40", "40-60", "60-80", "80-100")


# --------------------------------------------------------------------------- #
# Scale presets
# --------------------------------------------------------------------------- #
@dataclass
class ExperimentScale:
    """All size knobs of one experiment campaign."""

    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    fcm: FCMConfig = field(default_factory=FCMConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    cml: CMLConfig = field(default_factory=CMLConfig)
    linenet: LineNetConfig = field(default_factory=LineNetConfig)
    aggregated_fraction: float = 0.5
    sweep_epochs: int = 6
    sweep_train_records: int = 20
    eval_queries_for_sweeps: int = 8

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


def smoke_scale() -> ExperimentScale:
    """Tiny configuration used by the unit/integration tests."""
    return ExperimentScale(
        benchmark=BenchmarkConfig(
            corpus_records=26,
            train_records=10,
            validation_records=4,
            query_records=4,
            noisy_copies_per_query=3,
            k=3,
            min_rows=80,
            max_rows=140,
            relevance_max_points=32,
            seed=5,
        ),
        fcm=FCMConfig(
            embed_dim=16,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            beta=2,
            max_data_segments=4,
        ),
        trainer=TrainerConfig(epochs=2, batch_size=6, num_negatives=2, learning_rate=2e-3),
        cml=CMLConfig(embed_dim=16, epochs=2),
        linenet=LineNetConfig(embed_dim=16, epochs=2),
        sweep_epochs=1,
        sweep_train_records=6,
        eval_queries_for_sweeps=3,
    )


def default_scale() -> ExperimentScale:
    """The configuration used for the reported benchmark run.

    Sized so the full suite (benchmark construction, training FCM and its two
    ablations, training the learned baselines, and every table/figure runner)
    completes in roughly 15-20 minutes on a single laptop CPU core.
    """
    return ExperimentScale(
        benchmark=BenchmarkConfig(
            corpus_records=90,
            train_records=36,
            validation_records=10,
            query_records=10,
            noisy_copies_per_query=6,
            k=6,
            max_rows=220,
        ),
        fcm=FCMConfig(),
        trainer=TrainerConfig(epochs=12, batch_size=8, num_negatives=3, learning_rate=2e-3),
        cml=CMLConfig(epochs=6),
        linenet=LineNetConfig(epochs=5),
        sweep_epochs=3,
        sweep_train_records=14,
        eval_queries_for_sweeps=5,
    )


# --------------------------------------------------------------------------- #
# Evaluation helpers
# --------------------------------------------------------------------------- #
@dataclass
class QueryEvaluation:
    """Metrics and metadata of one (method, query) evaluation."""

    method: str
    query_id: str
    prec: float
    ndcg: float
    num_lines: int
    line_bucket: str
    is_aggregated: bool
    operator: Optional[str]
    window: Optional[int]


def evaluate_method(
    method: DiscoveryMethod,
    benchmark: Benchmark,
    queries: Optional[Sequence[BenchmarkQuery]] = None,
) -> List[QueryEvaluation]:
    """Run every query through ``method`` and compute prec@k / ndcg@k."""
    queries = list(queries) if queries is not None else benchmark.queries
    results: List[QueryEvaluation] = []
    for query in queries:
        retrieved = method.top_k_ids(query.chart, benchmark.k)
        results.append(
            QueryEvaluation(
                method=method.name,
                query_id=query.query_id,
                prec=precision_at_k(retrieved, query.relevant, benchmark.k),
                ndcg=ndcg_at_k(retrieved, query.relevant, benchmark.k),
                num_lines=query.num_lines,
                line_bucket=query.line_bucket,
                is_aggregated=query.is_aggregated,
                operator=query.aggregation.operator if query.aggregation else None,
                window=query.aggregation.window if query.aggregation else None,
            )
        )
    return results


def summarize(evaluations: Sequence[QueryEvaluation]) -> Dict[str, float]:
    """Mean prec@k / ndcg@k over a set of per-query evaluations."""
    if not evaluations:
        return {"prec": 0.0, "ndcg": 0.0, "queries": 0}
    return {
        "prec": float(np.mean([e.prec for e in evaluations])),
        "ndcg": float(np.mean([e.ndcg for e in evaluations])),
        "queries": len(evaluations),
    }


# --------------------------------------------------------------------------- #
# Method construction
# --------------------------------------------------------------------------- #
def train_baseline_methods(
    benchmark: Benchmark,
    scale: ExperimentScale,
) -> Dict[str, DiscoveryMethod]:
    """Train and index CML, DE-LN, Opt-LN and Qetch* on the benchmark."""
    chart_spec = scale.benchmark.chart_spec
    methods: Dict[str, DiscoveryMethod] = {}

    cml_model, _ = train_cml(benchmark.train_records, config=scale.cml, chart_spec=chart_spec)
    methods["CML"] = CMLMethod(cml_model)

    linenet_model, _ = train_linenet(
        benchmark.train_records, config=scale.linenet, chart_spec=chart_spec
    )
    methods["DE-LN"] = DELNMethod(linenet_model, chart_spec=chart_spec)
    specs = {
        record.table.table_id: record.spec
        for record in benchmark.train_records
        + benchmark.validation_records
    }
    # Noisy copies and query tables share the source's spec when available.
    for query in benchmark.queries:
        source = query.source_table_id
        for record in benchmark.train_records + benchmark.validation_records:
            if record.table.table_id == source:
                specs[source] = record.spec
    methods["Opt-LN"] = OptLNMethod(linenet_model, specs=specs, chart_spec=chart_spec)

    methods["Qetch*"] = QetchStarMethod()

    for method in methods.values():
        method.index_repository(benchmark.repository)
    return methods


def train_fcm_methods(
    benchmark: Benchmark,
    scale: ExperimentScale,
    variants: Sequence[str] = ("FCM",),
) -> Dict[str, FCMMethod]:
    """Train and index the requested FCM variants (full model and ablations)."""
    methods: Dict[str, FCMMethod] = {}
    for variant in variants:
        method, _ = train_fcm_variant(
            variant,
            benchmark.train_records,
            base_config=scale.fcm,
            trainer_config=scale.trainer,
            aggregated_fraction=scale.aggregated_fraction,
        )
        method.index_repository(benchmark.repository)
        methods[variant] = method
    return methods


# --------------------------------------------------------------------------- #
# Table I — benchmark statistics
# --------------------------------------------------------------------------- #
def run_table1(benchmark: Benchmark) -> Dict[str, Dict[str, int]]:
    """Benchmark statistics: query / repository counts per line-count bucket."""
    return benchmark.statistics()


# --------------------------------------------------------------------------- #
# Table II — overall effectiveness, with/without aggregation
# --------------------------------------------------------------------------- #
def run_table2(
    methods: Dict[str, DiscoveryMethod], benchmark: Benchmark
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Overall / with-DA / without-DA prec@k and ndcg@k per method."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {
        "overall": {},
        "with_da": {},
        "without_da": {},
    }
    for name, method in methods.items():
        evaluations = evaluate_method(method, benchmark)
        result["overall"][name] = summarize(evaluations)
        result["with_da"][name] = summarize([e for e in evaluations if e.is_aggregated])
        result["without_da"][name] = summarize(
            [e for e in evaluations if not e.is_aggregated]
        )
    return result


# --------------------------------------------------------------------------- #
# Table III — effectiveness vs number of lines
# --------------------------------------------------------------------------- #
def run_table3(
    methods: Dict[str, DiscoveryMethod], benchmark: Benchmark
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """prec@k / ndcg@k per line-count bucket per method."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    cache = {name: evaluate_method(method, benchmark) for name, method in methods.items()}
    for bucket in LINE_BUCKETS:
        result[bucket] = {}
        for name, evaluations in cache.items():
            result[bucket][name] = summarize(
                [e for e in evaluations if e.line_bucket == bucket]
            )
    return result


# --------------------------------------------------------------------------- #
# Table IV — DA breakdown by operator and window size
# --------------------------------------------------------------------------- #
def run_table4(
    method: DiscoveryMethod, benchmark: Benchmark
) -> Dict[str, Dict[str, float]]:
    """prec@k per aggregation operator × window bucket for one method (FCM)."""
    evaluations = [e for e in evaluate_method(method, benchmark) if e.is_aggregated]
    result: Dict[str, Dict[str, float]] = {}
    for operator in AGGREGATION_OPERATORS_ORDER:
        result[operator] = {}
        for bucket in WINDOW_BUCKETS:
            matching = [
                e
                for e in evaluations
                if e.operator == operator and window_bucket(e.window or 0) == bucket
            ]
            result[operator][bucket] = summarize(matching)["prec"] if matching else float("nan")
    return result


# --------------------------------------------------------------------------- #
# Table V — FCM vs FCM−HCMAN
# --------------------------------------------------------------------------- #
def run_table5(
    fcm: DiscoveryMethod, fcm_without_hcman: DiscoveryMethod, benchmark: Benchmark
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Overall and per-bucket comparison of FCM and the HCMAN ablation."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    evals = {
        "FCM": evaluate_method(fcm, benchmark),
        "FCM-HCMAN": evaluate_method(fcm_without_hcman, benchmark),
    }
    result["overall"] = {name: summarize(e) for name, e in evals.items()}
    for bucket in LINE_BUCKETS:
        result[bucket] = {
            name: summarize([q for q in e if q.line_bucket == bucket])
            for name, e in evals.items()
        }
    return result


# --------------------------------------------------------------------------- #
# Table VI — impact of the DA layers
# --------------------------------------------------------------------------- #
def run_table6(
    fcm: DiscoveryMethod, fcm_without_da: DiscoveryMethod, benchmark: Benchmark
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Overall / with-DA / without-DA comparison of FCM and the DA ablation."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    evals = {
        "FCM": evaluate_method(fcm, benchmark),
        "FCM-DA": evaluate_method(fcm_without_da, benchmark),
    }
    result["overall"] = {name: summarize(e) for name, e in evals.items()}
    result["with_da"] = {
        name: summarize([q for q in e if q.is_aggregated]) for name, e in evals.items()
    }
    result["without_da"] = {
        name: summarize([q for q in e if not q.is_aggregated]) for name, e in evals.items()
    }
    return result


# --------------------------------------------------------------------------- #
# Table VII — segment sizes P1 × P2
# --------------------------------------------------------------------------- #
def run_table7(
    benchmark: Benchmark,
    scale: ExperimentScale,
    p1_values: Sequence[int] = (30, 60, 120),
    p2_values: Sequence[int] = (32, 64, 128),
) -> Dict[Tuple[int, int], float]:
    """prec@k for a grid of line-segment (P1) and data-segment (P2) sizes.

    Each grid cell trains a fresh (short-budget) FCM; the sweep uses a subset
    of training records and queries so its cost stays linear in the grid size.
    """
    train_records = benchmark.train_records[: scale.sweep_train_records]
    queries = benchmark.queries[: scale.eval_queries_for_sweeps]
    trainer_config = replace(scale.trainer, epochs=scale.sweep_epochs)
    results: Dict[Tuple[int, int], float] = {}
    for p1 in p1_values:
        for p2 in p2_values:
            config = scale.fcm.with_overrides(
                line_segment_width=p1, data_segment_size=p2
            )
            model, _, _ = train_fcm(
                train_records,
                config=config,
                trainer_config=trainer_config,
                aggregated_fraction=scale.aggregated_fraction,
            )
            method = FCMMethod(model, name=f"FCM(P1={p1},P2={p2})")
            method.index_repository(benchmark.repository)
            evaluations = evaluate_method(method, benchmark, queries=queries)
            results[(p1, p2)] = summarize(evaluations)["prec"]
    return results


# --------------------------------------------------------------------------- #
# Table VIII — indexing strategies
# --------------------------------------------------------------------------- #
def run_table8(
    fcm_method: FCMMethod,
    benchmark: Benchmark,
    lsh_config: Optional[LSHConfig] = None,
    queries: Optional[Sequence[BenchmarkQuery]] = None,
) -> Dict[str, Dict[str, float]]:
    """prec@k, ndcg@k, per-query time and candidate counts per index strategy.

    Candidate verification inside :class:`HybridQueryProcessor` runs the
    batched no-grad FCM path (one stacked matcher forward for all surviving
    candidates), so the ``query_seconds`` column reflects the production
    inference engine rather than a per-pair Python loop; see
    ``benchmarks/README.md`` for how to read the timing numbers.
    """
    processor = HybridQueryProcessor(fcm_method.scorer, lsh_config=lsh_config)
    build_stats = processor.index_repository(benchmark.repository.tables)
    queries = list(queries) if queries is not None else benchmark.queries

    results: Dict[str, Dict[str, float]] = {}
    for strategy in INDEXING_STRATEGIES:
        precs, ndcgs, times, candidates = [], [], [], []
        for query in queries:
            outcome = processor.query(query.chart, k=benchmark.k, strategy=strategy)
            retrieved = outcome.top_k_ids(benchmark.k)
            precs.append(precision_at_k(retrieved, query.relevant, benchmark.k))
            ndcgs.append(ndcg_at_k(retrieved, query.relevant, benchmark.k))
            times.append(outcome.seconds)
            candidates.append(outcome.candidates)
        results[strategy] = {
            "prec": float(np.mean(precs)),
            "ndcg": float(np.mean(ndcgs)),
            "query_seconds": float(np.mean(times)),
            "mean_candidates": float(np.mean(candidates)),
        }
    results["_build"] = {
        "interval_seconds": build_stats.interval_seconds,
        "lsh_seconds": build_stats.lsh_seconds,
        "num_tables": float(build_stats.num_tables),
    }
    return results


# --------------------------------------------------------------------------- #
# Table IX — number of negative samples N−
# --------------------------------------------------------------------------- #
def run_table9(
    benchmark: Benchmark,
    scale: ExperimentScale,
    negative_counts: Sequence[int] = (1, 2, 3, 6),
) -> Dict[int, Dict[str, float]]:
    """prec@k / ndcg@k after training with each number of negatives."""
    train_records = benchmark.train_records[: scale.sweep_train_records]
    queries = benchmark.queries[: scale.eval_queries_for_sweeps]
    data = build_training_data(
        train_records,
        scale.fcm,
        aggregated_fraction=scale.aggregated_fraction,
        seed=scale.trainer.seed,
    )
    # One seed, one batch sequence: every N- ranks the same (example, table)
    # pairs, so the runs after the first find their relevance in the memo.
    results: Dict[int, Dict[str, float]] = {}
    for n_neg in negative_counts:
        trainer_config = replace(
            scale.trainer, epochs=scale.sweep_epochs, num_negatives=n_neg
        )
        model = FCMModel(scale.fcm)
        FCMTrainer(model, trainer_config).train(data)
        method = FCMMethod(model, name=f"FCM(N-={n_neg})")
        method.index_repository(benchmark.repository)
        results[n_neg] = summarize(evaluate_method(method, benchmark, queries=queries))
    return results


# --------------------------------------------------------------------------- #
# Figure 5 — negative sampling strategies vs convergence
# --------------------------------------------------------------------------- #
def run_fig5(
    benchmark: Benchmark,
    scale: ExperimentScale,
    strategies: Sequence[str] = ("semi-hard", "random", "easy", "hard"),
    epochs: Optional[int] = None,
) -> Dict[str, List[float]]:
    """Per-epoch validation prec@k for each negative-sampling strategy."""
    train_records = benchmark.train_records[: scale.sweep_train_records]
    queries = benchmark.queries[: scale.eval_queries_for_sweeps]
    epochs = epochs or scale.sweep_epochs

    data = build_training_data(
        train_records,
        scale.fcm,
        aggregated_fraction=scale.aggregated_fraction,
        seed=scale.trainer.seed,
    )

    def make_eval(model: FCMModel):
        def eval_fn(m: FCMModel) -> float:
            method = FCMMethod(m)
            method.index_repository(benchmark.repository)
            return summarize(evaluate_method(method, benchmark, queries=queries))["prec"]

        return eval_fn

    curves: Dict[str, List[float]] = {}
    for strategy in strategies:
        trainer_config = replace(scale.trainer, epochs=epochs, strategy=strategy)
        model = FCMModel(scale.fcm)
        trainer = FCMTrainer(model, trainer_config)
        # The ranking strategies share one batch sequence, hence one set of
        # relevance pairs (memoised by the first); ``random`` reads none.
        history = trainer.train(data, eval_fn=make_eval(model))
        curves[strategy] = [m if m is not None else 0.0 for m in history.eval_metrics]
    return curves
