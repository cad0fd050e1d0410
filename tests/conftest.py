"""Shared fixtures: small corpora, charts and model configurations.

Everything here is deliberately tiny so the full unit-test suite runs in well
under a minute on a laptop CPU (and ``-m "not slow"`` in seconds); the
benchmark directory uses larger scales.  See ``pytest.ini`` for the tiers.
"""

from __future__ import annotations

import json

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


def read_archive(path):
    """``(meta, arrays)`` of one snapshot archive with every member read —
    the inverse of ``persistence._write_archive``, for tests that inspect a
    file or tamper with it."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return json.loads(bytes(arrays.pop("__meta__")).decode("utf-8")), arrays


def quantize_table(representations):
    """Symmetric int8 quantization of one ``(NC, N2, K)`` encoding, written
    out for one table: ``scale = max|x| / 127`` and ``codes = rint(x / scale)``
    at the encoding's dtype, or ``scale = 0.0`` and all-zero codes when the
    maximum is zero or not finite.  The copy every cached encoding used to
    carry, and the oracle of ``fastpath.quantize_tables`` and the coarse rows."""
    from repro.fcm.fastpath import QuantizedTable

    reps = np.asarray(representations)
    amax = float(np.max(np.abs(reps))) if reps.size else 0.0
    scale = amax / 127.0 if np.isfinite(amax) else 0.0
    if scale == 0.0:
        return QuantizedTable(np.zeros(reps.shape, dtype=np.int8), 0.0)
    quotient = reps / np.asarray(scale, dtype=reps.dtype)
    return QuantizedTable(np.clip(np.rint(quotient), -127, 127).astype(np.int8), scale)


def scorer_count(scorer, name: str) -> int:
    """The scorer's count ``name`` (a key of ``SCORER_COUNTS``), read where
    it is kept: the counter ``repro_<name>_total`` of ``scorer.registry``."""
    return int(scorer.registry.counter(f"repro_{name}_total").value())


def copy_scorer(scorer, order):
    """A new scorer over ``scorer``'s model holding its current generation's
    entries, written in ``order`` (stream families bound by a second write)
    — the reference for "derived state ignores mutation order" checks."""
    generation = scorer.generation
    fresh = FCMScorer(scorer.model)
    fresh.write(entries=[generation.encoded[table_id] for table_id in order])
    fresh.write(streams=generation.streams)
    return fresh


def assert_exact_pack_is_a_rebuild(scorer, held=None, entries=None) -> None:
    """A pack ``scorer`` holds equals, array for array, the pack a scorer
    with no history builds over ``entries``.  By default the index-wide
    exact pack (reconciled here unless ``held`` is given) over the scorable
    ids' entries; pass the coarse pack with ``scorer._coarse_entries(...)``
    to check that one."""
    from repro.fcm.fastpath import build_exact_pack

    if held is None:
        held = scorer.exact_pack()
    if entries is None:
        entries = scorer._pack_entries(sorted(scorer.indexed_table_ids), scorer.generation)
    rebuilt = build_exact_pack(scorer._fused_kernel(), entries)
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


def _hex_float(value):
    """``float.fromhex(value)`` when ``value`` is a ``float.hex`` string."""
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        return float.fromhex(value)
    return None


def _is_ranking(value) -> bool:
    """A non-empty list of ``[id, float.hex score]`` pairs."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and _hex_float(item[1]) is not None
            for item in value
        )
    )


def assert_equal_but_score_bits(ours, golden, tol: float, path: str = "$") -> float:
    """Two recorded (JSON) structures are equal in everything but the bits of
    their ``float.hex`` scores — same keys, same lengths, same order, same ids
    and counts — and every score is within ``tol``; returns the largest score
    difference.  One reordering passes: inside a ranking (a list of ``[id,
    score]`` pairs) two ids may trade places if ``golden`` scored them within
    ``tol`` of each other — a near-tie it broke by last-bit noise.  What a
    re-record of a bitwise golden has to pass first (``python
    tests/test_rows_parity.py`` runs it against the file it is about to
    replace)."""
    score, recorded = _hex_float(ours), _hex_float(golden)
    if score is not None and recorded is not None:
        delta = abs(score - recorded)
        assert delta <= tol, f"{path}: score moved by {delta:.3e} (> {tol:.0e})"
        return delta
    assert type(ours) is type(golden), f"{path}: {ours!r} != {golden!r}"
    if _is_ranking(golden) and _is_ranking(ours) and len(ours) == len(golden):
        ids = [table_id for table_id, _ in golden]
        scores = [float.fromhex(hexed) for _, hexed in golden]
        for place, (table_id, _) in enumerate(ours):
            assert table_id in ids, f"{path}[{place}]: {table_id!r} is not in the golden ranking"
            gap = abs(scores[ids.index(table_id)] - scores[place])
            assert gap <= tol, f"{path}[{place}]: {table_id!r} != {ids[place]!r}, {gap:.3e} apart"
        pairs = [(a[1], b[1], f"{path}[{i}][1]") for i, (a, b) in enumerate(zip(ours, golden))]
    elif isinstance(golden, dict):
        assert list(ours) == list(golden), f"{path}: keys {list(ours)} != {list(golden)}"
        pairs = [(ours[key], golden[key], f"{path}.{key}") for key in golden]
    elif isinstance(golden, list):
        assert len(ours) == len(golden), f"{path}: {len(ours)} items != {len(golden)}"
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(ours, golden))]
    else:
        assert ours == golden, f"{path}: {ours!r} != {golden!r}"
        return 0.0
    return max((assert_equal_but_score_bits(a, b, tol, p) for a, b, p in pairs), default=0.0)
