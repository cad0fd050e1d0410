"""Shared fixtures: small corpora, charts and model configurations.

Everything here is deliberately tiny so the full unit-test suite runs in well
under a minute on a laptop CPU (and ``-m "not slow"`` in seconds); the
benchmark directory uses larger scales.  See ``pytest.ini`` for the tiers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import default_dtype

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import (
    Column,
    CorpusConfig,
    Table,
    filter_line_chart_records,
    generate_corpus,
)
from repro.fcm import FCMConfig, FCMScorer
from repro.vision import VisualElementExtractor


def active_dtype() -> np.dtype:
    """The precision policy the suite is running under (see REPRO_DTYPE)."""
    return np.dtype(default_dtype())


def dtype_tol(float64_tol: float, float32_tol: float) -> float:
    """Pick an equivalence tolerance for the active precision policy.

    The suite runs under both policies in CI: float64 keeps the historical
    tight bounds (the engine is bit-for-bit unchanged there), float32 uses
    the loosened bound appropriate for ~1e-7 machine epsilon.
    """
    return float32_tol if active_dtype() == np.float32 else float64_tol


def copy_scorer(scorer, order):
    """A new scorer over ``scorer``'s model holding its cached encodings,
    inserted in ``order`` (stream families rebound afterwards) — the
    reference for "derived state ignores mutation order" checks."""
    fresh = FCMScorer(scorer.model)
    for table_id in order:
        fresh.add_encoded(scorer._encoded[table_id])
    for parent, segment_ids in scorer._segments.items():
        fresh.bind_stream(parent, segment_ids)
    return fresh


def assert_exact_pack_is_a_rebuild(scorer, held=None) -> None:
    """``scorer``'s index-wide exact pack (reconciled here unless ``held`` is
    given) equals, array for array, the pack a scorer with no history builds
    over the same entries."""
    from repro.fcm.fastpath import build_exact_pack

    if held is None:
        held = scorer.exact_pack()
    rebuilt = build_exact_pack(
        scorer._fused_kernel(), scorer._pack_entries(sorted(scorer.indexed_table_ids))
    )
    assert list(held.index.items()) == list(rebuilt.index.items())
    for name in ("bucket_of", "row_of", "order", "counts", "rows"):
        ours, theirs = getattr(held, name), getattr(rebuilt, name)
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    assert len(held.buckets) == len(rebuilt.buckets)
    for ours, theirs in zip(held.buckets, rebuilt.buckets):
        for name, a, b in zip(ours._fields, ours, theirs):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.flags.c_contiguous, name
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert held.nbytes == rebuilt.nbytes
    for a, b in zip(held.weights, rebuilt.weights):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_records():
    """A handful of line-chart corpus records shared across tests.

    Sized to the largest slice any test takes (``small_records[:8]`` in the
    serving tests) plus headroom; bigger corpora only add fixture-build time.
    """
    records = generate_corpus(
        CorpusConfig(num_records=12, min_rows=80, max_rows=120, seed=3)
    )
    return filter_line_chart_records(records)


@pytest.fixture(scope="session")
def simple_table() -> Table:
    """A small deterministic table with distinct column shapes."""
    n = 96
    t = np.linspace(0, 1, n)
    return Table(
        "tbl_simple",
        [
            Column("time", np.arange(n, dtype=float), role="x"),
            Column("rising", 10.0 * t + 1.0, role="y"),
            Column("wave", np.sin(2 * np.pi * 3 * t) * 5.0, role="y"),
            Column("flatish", np.full(n, 2.0) + 0.01 * t, role="y"),
        ],
    )


@pytest.fixture(scope="session")
def simple_chart(simple_table):
    """A two-line chart rendered from the simple table."""
    return render_chart_for_table(
        simple_table, ["rising", "wave"], x_column="time", spec=ChartSpec()
    )


@pytest.fixture(scope="session")
def tiny_fcm_config() -> FCMConfig:
    """The smallest sensible FCM configuration (used by model/training tests)."""
    return FCMConfig(
        embed_dim=16,
        num_heads=2,
        num_layers=1,
        data_segment_size=32,
        beta=2,
        max_data_segments=4,
    )


@pytest.fixture(scope="session")
def extractor() -> VisualElementExtractor:
    return VisualElementExtractor()
