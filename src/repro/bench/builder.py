"""Benchmark construction (Sec. VII-A), scaled for this reproduction.

The pipeline mirrors the paper's:

1. **Filtering & deduplication** — keep only line-chart records, drop
   near-duplicate tables.
2. **Split** — training, validation and query (test) records.
3. **Query generation** — for each query record, two line chart queries are
   rendered: one directly from its visualization spec and one through a
   randomly sampled aggregation operator and window.
4. **Ground-truth generation** — for each query, ``noisy_copies`` noisy
   near-duplicates of its source table (columns multiplied element-wise by
   ``U(0.9, 1.1)``) are injected into the repository, the ground-truth
   relevance ``Rel(D, T)`` is computed against every repository table, and
   the top-``k`` tables form the relevant set.

The paper uses k = 50 with 50 injected copies per query over a ~10k-table
repository; the scaled defaults keep the same *ratio* (k = number of injected
copies) so prec@k / ndcg@k behave the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..charts.rasterizer import LineChart, render_chart_for_table
from ..charts.spec import ChartSpec
from ..data.aggregation import AggregationSpec, sample_aggregation_spec
from ..data.corpus import CorpusConfig, CorpusRecord, generate_corpus, line_count_bucket
from ..data.repository import DataRepository
from ..data.split import SplitSizes, filter_line_chart_records, split_corpus
from ..fcm.training import ground_truth_relevances


@dataclass
class BenchmarkConfig:
    """Sizes and knobs of the scaled benchmark."""

    corpus_records: int = 120
    train_records: int = 45
    validation_records: int = 15
    query_records: int = 12
    noisy_copies_per_query: int = 8
    k: int = 8
    min_rows: int = 100
    max_rows: int = 260
    relevance_max_points: int = 40
    chart_spec: ChartSpec = field(default_factory=ChartSpec)
    seed: int = 11

    def __post_init__(self) -> None:
        total = self.train_records + self.validation_records + self.query_records
        if total > self.corpus_records:
            raise ValueError(
                f"split sizes ({total}) exceed corpus_records ({self.corpus_records})"
            )
        if self.k <= 0 or self.noisy_copies_per_query < 0:
            raise ValueError("k must be positive and noisy_copies_per_query >= 0")
        if self.relevance_max_points < 2:
            raise ValueError("relevance_max_points must be >= 2")


@dataclass
class BenchmarkQuery:
    """One line chart query plus its ground truth."""

    query_id: str
    chart: LineChart
    source_table_id: str
    num_lines: int
    aggregation: Optional[AggregationSpec]
    relevant: Set[str]
    ranked_ground_truth: List[str]

    @property
    def is_aggregated(self) -> bool:
        return self.aggregation is not None and not self.aggregation.is_identity

    @property
    def line_bucket(self) -> str:
        return line_count_bucket(self.num_lines)


@dataclass
class Benchmark:
    """The full evaluation benchmark."""

    config: BenchmarkConfig
    repository: DataRepository
    queries: List[BenchmarkQuery]
    train_records: List[CorpusRecord]
    validation_records: List[CorpusRecord]

    @property
    def k(self) -> int:
        return self.config.k

    def queries_with_aggregation(self, aggregated: bool) -> List[BenchmarkQuery]:
        return [q for q in self.queries if q.is_aggregated == aggregated]

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Table I style statistics: query / repository counts per line bucket."""
        query_counts = {"1": 0, "2-4": 0, "5-7": 0, ">7": 0}
        for query in self.queries:
            query_counts[query.line_bucket] += 1
        repo_counts = {"1": 0, "2-4": 0, "5-7": 0, ">7": 0}
        for table in self.repository:
            plottable = max(
                sum(1 for c in table.columns if c.role != "x"), 1
            )
            repo_counts[line_count_bucket(min(plottable, 12))] += 1
        query_counts["total"] = len(self.queries)
        repo_counts["total"] = len(self.repository)
        return {"queries": query_counts, "repository": repo_counts}


def _query_charts_for_record(
    record: CorpusRecord,
    config: BenchmarkConfig,
    rng: np.random.Generator,
) -> List[Tuple[LineChart, Optional[AggregationSpec]]]:
    """Render the two query charts (plain + aggregated) for one test record."""
    y_columns = list(record.spec.y_columns)
    plain = render_chart_for_table(
        record.table, y_columns, x_column=record.spec.x_column, spec=config.chart_spec
    )
    aggregation = sample_aggregation_spec(record.table.num_rows, rng)
    aggregated = render_chart_for_table(
        record.table,
        y_columns,
        x_column=record.spec.x_column,
        aggregation=aggregation,
        spec=config.chart_spec,
    )
    return [(plain, None), (aggregated, aggregation)]


def build_benchmark(
    config: Optional[BenchmarkConfig] = None,
    records: Optional[Sequence[CorpusRecord]] = None,
) -> Benchmark:
    """Build the full benchmark (corpus → splits → queries → ground truth)."""
    config = config or BenchmarkConfig()
    rng = np.random.default_rng(config.seed)

    if records is None:
        corpus = generate_corpus(
            CorpusConfig(
                num_records=config.corpus_records,
                min_rows=config.min_rows,
                max_rows=config.max_rows,
                seed=config.seed,
            )
        )
    else:
        corpus = list(records)

    line_records = filter_line_chart_records(corpus)
    # Deduplicate at the table level before splitting (Sec. VII-A).
    staging = DataRepository()
    id_to_record = {}
    for record in line_records:
        if record.table.table_id in staging:
            continue
        staging.add(record.table)
        id_to_record[record.table.table_id] = record
    staging.deduplicate()
    deduplicated = [id_to_record[table_id] for table_id in staging.table_ids]

    split = split_corpus(
        deduplicated,
        SplitSizes(
            train=config.train_records,
            validation=config.validation_records,
            test=config.query_records,
        ),
        seed=config.seed,
    )

    # The searchable repository holds every (deduplicated) table.
    repository = DataRepository()
    for record in deduplicated:
        repository.add(record.table)

    # Queries + noisy ground-truth copies.
    queries: List[BenchmarkQuery] = []
    for record in split.test:
        repository.inject_noisy_copies(
            record.table,
            count=config.noisy_copies_per_query,
            rng=rng,
            exclude_columns=[record.spec.x_column] if record.spec.x_column else None,
        )

    tables = repository.tables
    for record in split.test:
        for chart, aggregation in _query_charts_for_record(record, config, rng):
            query_id = f"q_{record.table.table_id}_{'agg' if aggregation else 'plain'}"
            relevances = ground_truth_relevances(
                [chart.underlying], tables, max_points=config.relevance_max_points
            )[0]
            scored = [(table.table_id, float(score)) for table, score in zip(tables, relevances)]
            scored.sort(key=lambda item: item[1], reverse=True)
            ranked_ids = [table_id for table_id, _ in scored]
            relevant = set(ranked_ids[: config.k])
            queries.append(
                BenchmarkQuery(
                    query_id=query_id,
                    chart=chart,
                    source_table_id=record.table.table_id,
                    num_lines=chart.num_lines,
                    aggregation=aggregation,
                    relevant=relevant,
                    ranked_ground_truth=ranked_ids[: config.k],
                )
            )

    return Benchmark(
        config=config,
        repository=repository,
        queries=queries,
        train_records=list(split.train),
        validation_records=list(split.validation),
    )
