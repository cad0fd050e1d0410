"""Everything the workloads feed the program, generated from the seed.

The program under test never sees the seed: it receives tables, charts, JSON
bodies and row batches.  The seed drives ``SynthConfig.seed`` (the corpus),
the choice of query charts, the Zipf draw and the stream rows — the same seed
always yields the same inputs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.fixture import trained_fixture_model
from repro.charts.rasterizer import LineChart, render_chart_for_table
from repro.data.synth import SynthConfig, synth_table
from repro.data.table import Table
from repro.fcm.config import FCMConfig
from repro.fcm.model import FCMModel
from repro.index.lsh import LSHConfig
from repro.serving.http import chart_payload_from_series

from bootstrap import CACHE_DIR

K = 10
NUM_CLUSTERS = 16
MODEL_CONFIG = FCMConfig(
    embed_dim=32,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=8,
    beta=2,
)
LSH_CONFIG = LSHConfig(num_bits=16, hamming_radius=2)

# Independent random streams per input family, so changing how many charts a
# workload draws never shifts its Zipf sequence or its stream rows.
_CHART_STREAM, _ZIPF_STREAM, _ROWS_STREAM = 1, 2, 3


def load_model() -> FCMModel:
    """The pinned-seed trained fixture (trained once per checkout, then loaded)."""
    return trained_fixture_model(MODEL_CONFIG, cache_dir=CACHE_DIR)


def make_tables(count: int, seed: int, first: int = 0) -> List[Table]:
    """Tables ``first`` .. ``first + count - 1`` of the seed's synthetic corpus."""
    config = SynthConfig(
        num_tables=first + count,
        num_rows=256,
        max_columns=3,
        num_clusters=NUM_CLUSTERS,
        seed=seed,
    )
    return [synth_table(index, config) for index in range(first, first + count)]


def pick_charts(
    tables: Sequence[Table], count: int, seed: int
) -> Tuple[List[int], List[LineChart]]:
    """``count`` distinct source-table indices and the chart of each table.

    A chart has as many lines as its table has columns, and a query's cost
    grows with its lines; the draw takes an equal share of charts from each
    column count so that the mix of query shapes is the same for every seed.
    """
    rng = np.random.default_rng((seed, _CHART_STREAM))
    by_columns: Dict[int, List[int]] = {}
    for index, table in enumerate(tables):
        by_columns.setdefault(table.num_columns, []).append(index)
    groups = [by_columns[columns] for columns in sorted(by_columns)]
    sources: List[int] = []
    for position, group in enumerate(groups):
        share = count // len(groups) + (position < count % len(groups))
        sources.extend(int(i) for i in rng.choice(group, share, replace=False))
    sources.sort()
    charts = [
        render_chart_for_table(
            tables[i], tables[i].column_names, spec=MODEL_CONFIG.chart_spec
        )
        for i in sources
    ]
    return sources, charts


def query_body(table: Table) -> bytes:
    """The ``POST /query`` body a client sends to ask about ``table``'s chart."""
    series = table.to_underlying_data(table.column_names).series
    payload = {"chart": chart_payload_from_series(series), "k": K, "strategy": "hybrid"}
    return json.dumps(payload).encode("utf-8")


def zipf_draw(num_items: int, num_draws: int, seed: int) -> List[int]:
    """``num_draws`` item indices with P(i) proportional to 1 / (i + 1) ** 1.1."""
    rng = np.random.default_rng((seed, _ZIPF_STREAM))
    weights = 1.0 / np.arange(1, num_items + 1) ** 1.1
    draws = rng.choice(num_items, size=num_draws, p=weights / weights.sum())
    return [int(i) for i in draws]


def stream_rows(stream: int, num_rows: int, seed: int) -> Dict[str, np.ndarray]:
    """Two random-walk columns: the full row history of stream ``stream``.

    The walks live far above the static tables' values (|v| < 300).  Were the
    ranges to overlap, whether a stream lands in a chart's LSH bucket - and the
    hybrid index then answers with the streams alone, in a quarter of the time
    - would depend on the seed, and so would which kind of query the median is.
    """
    rng = np.random.default_rng((seed, _ROWS_STREAM, stream))
    return {
        name: 10_000.0 * (stream + 1) + np.cumsum(rng.normal(0.0, 1.0, num_rows))
        for name in ("a", "b")
    }
