"""``relevance_matrix`` pinned bit for bit against a recorded golden.

``python tests/test_relevance_golden.py`` (``PYTHONPATH=<src>:tests``)
records ``fixtures/relevance_golden.json`` — the cold ``relevance_matrix``
of a small fixed corpus (multi-line, aggregated, short and constant-column
tables) at ``max_points`` 16 and 48, every entry as ``float.hex`` — from
whatever ``src`` is on the path.  It was recorded with the per-cell DTW
sweep, before the stacked sweep replaced it; the stacked sweep reproduces it
exactly.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data import Column, CorpusConfig, Table, filter_line_chart_records, generate_corpus
from repro.fcm import FCMConfig, build_training_data, relevance_matrix
from repro.relevance import clear_relevance_cache, relevance_cache_info

RELEVANCE_GOLDEN = Path(__file__).parent / "fixtures" / "relevance_golden.json"
MAX_POINTS = (16, 48)


def golden_corpus():
    """``(examples, tables)``: eight rendered examples over as many tables,
    plus a constant-column table, a 12-row table and an example whose every
    line is flat."""
    config = FCMConfig(
        embed_dim=16, num_heads=2, num_layers=1, data_segment_size=32, beta=2, max_data_segments=4
    )
    records = filter_line_chart_records(
        generate_corpus(
            CorpusConfig(
                num_records=8,
                min_rows=60,
                max_rows=90,
                non_line_fraction=0.0,
                duplicate_fraction=0.0,
                seed=11,
            )
        )
    )
    data = build_training_data(records, config, aggregated_fraction=0.5, seed=0)
    n = 70
    t = np.linspace(0.0, 1.0, n)
    constant = Table(
        "tbl_constant",
        [
            Column("x", np.arange(n, dtype=np.float64), role="x"),
            Column("flat", np.full(n, 3.0), role="y"),
            Column("also_flat", np.full(n, -1.5), role="y"),
            Column("ramp", 4.0 * t - 1.0, role="y"),
        ],
    )
    short = Table(
        "tbl_short",
        [
            Column("x", np.arange(12, dtype=np.float64), role="x"),
            Column("zigzag", np.array([0.0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7]), role="y"),
        ],
    )
    tables = dict(data.tables)
    tables[constant.table_id] = constant
    tables[short.table_id] = short
    flat = replace(
        data.examples[0],
        underlying=constant.to_underlying_data(["flat", "also_flat"], x_column="x"),
        table_id=constant.table_id,
        num_lines=2,
        aggregation=None,
    )
    return data.examples + [flat], tables


def record_golden() -> dict:
    """The golden's matrices, read through the memo as it stands."""
    examples, tables = golden_corpus()
    assert any(example.is_aggregated for example in examples)
    assert any(example.underlying.num_lines > 1 for example in examples)
    golden = {}
    for max_points in MAX_POINTS:
        matrix, order = relevance_matrix(examples, tables, max_points=max_points)
        golden[str(max_points)] = {
            "tables": order,
            "matrix": [[float(value).hex() for value in row] for row in matrix],
        }
    return golden


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_relevance_matrix_is_the_recorded_one(memo):
    """Cold: every entry computed; warm: the memo cleared, refilled by one
    pass, then every entry read back from it."""
    golden = json.loads(RELEVANCE_GOLDEN.read_text())["max_points"]
    try:
        clear_relevance_cache()
        if memo == "warm":
            record_golden()
        misses = relevance_cache_info().misses
        assert record_golden() == golden
        if memo == "warm":
            assert relevance_cache_info().misses == misses
    finally:
        clear_relevance_cache()


if __name__ == "__main__":
    import subprocess

    import repro.fcm.training as training_module

    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=Path(training_module.__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    clear_relevance_cache()
    golden = {"recorded_at": revision, "max_points": record_golden()}
    RELEVANCE_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {RELEVANCE_GOLDEN} at {revision}")
