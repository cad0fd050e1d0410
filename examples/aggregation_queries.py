"""Aggregation-based queries: the scenario motivating the DA layers (Sec. V).

A business analyst has a chart of *monthly* totals but the data lake stores
*daily* records.  This example renders a query chart through a sum
aggregation with a 30-row window and shows that:

* the ground-truth relevance still identifies the daily source table, and
* FCM's Mixture-of-Experts gate shifts probability mass toward the correct
  aggregation operator for the aggregated data.

Run with::

    python examples/aggregation_queries.py
"""

from __future__ import annotations

import numpy as np

from repro.charts import render_chart_for_table
from repro.data import (
    AggregationSpec,
    Column,
    CorpusConfig,
    DataRepository,
    Table,
    filter_line_chart_records,
    generate_corpus,
)
from repro.fcm import (
    FCMConfig,
    FCMModel,
    FCMScorer,
    column_segments,
    ground_truth_relevances,
)


def build_daily_sales_table(num_days: int = 360, seed: int = 3) -> Table:
    """A synthetic daily-sales table with weekly/seasonal cycles and a trend.

    The seasonal (180-day) swing gives the series a distinctive shape that
    survives both the 30-day aggregation of the query chart and the
    resampling inside the DTW ground truth; the weekly ripple is kept small
    for the same reason (a dominant ripple turns the daily series into noise
    at monthly resolution and no shape-based relevance could recover it).
    """
    rng = np.random.default_rng(seed)
    day = np.arange(num_days, dtype=float)
    weekly = 1.0 + 0.1 * np.sin(2 * np.pi * day / 7.0)
    trend = 1.0 + day / num_days + 0.8 * np.sin(2 * np.pi * day / 180.0)
    sales = 100.0 * weekly * trend + rng.normal(0, 5, size=num_days)
    marketing = 20.0 + 10.0 * np.sin(2 * np.pi * day / 90.0) + rng.normal(0, 1, size=num_days)
    return Table(
        "daily_sales",
        [
            Column("day", day, role="x"),
            Column("sales", sales, role="y"),
            Column("marketing_spend", marketing, role="y"),
        ],
    )


def main() -> None:
    print("== Scenario: a chart of monthly sales, a lake of daily tables ==")
    sales_table = build_daily_sales_table()
    aggregation = AggregationSpec(operator="sum", window=30)
    chart = render_chart_for_table(
        sales_table, ["sales"], x_column="day", aggregation=aggregation
    )
    print(f"   query chart: {chart.num_lines} line, aggregation={aggregation.describe()}, "
          f"{len(chart.underlying[0])} aggregated points from {sales_table.num_rows} daily rows")

    print("== Ground-truth relevance still finds the daily source ==")
    distractors = [
        record.table
        for record in filter_line_chart_records(
            generate_corpus(CorpusConfig(num_records=12, seed=9))
        )
    ]
    repository = DataRepository([sales_table] + distractors)
    tables = repository.tables
    relevances = ground_truth_relevances([chart.underlying], tables, max_points=48)[0]
    scored = sorted(
        zip((table.table_id for table in tables), relevances.tolist()),
        key=lambda item: item[1],
        reverse=True,
    )
    for rank, (table_id, score) in enumerate(scored[:3], start=1):
        print(f"     {rank}. {table_id:<14s} Rel(D,T)={score:.3f}")
    assert scored[0][0] == "daily_sales"

    print("== FCM with DA layers: MoE gate inspection ==")
    config = FCMConfig()  # DA layers enabled by default
    model = FCMModel(config)
    segments = column_segments(sales_table["sales"].values, config)
    gates = model.dataset_encoder.moe_gate_weights(segments)
    operator_names = ("avg", "sum", "max", "min", "identity")
    mean_gates = gates.mean(axis=0)
    print("   (untrained) expert mixture over", operator_names, "=",
          np.round(mean_gates, 3).tolist())
    print("   After training on a corpus with DA charts, the gate learns to favour")
    print("   the operator that actually produced the chart (see Table VI bench).")

    print("== Scoring the repository with FCM ==")
    scorer = FCMScorer(model)
    scorer.index_repository(repository)
    top = scorer.rank(chart, k=3)
    for rank, (table_id, score) in enumerate(top, start=1):
        print(f"     {rank}. {table_id:<14s} Rel'(V,T)={score:.3f}")
    print("   (an untrained model scores near 0.5 everywhere; train it as in")
    print("    examples/quickstart.py for meaningful rankings)")


if __name__ == "__main__":
    main()
