"""A build at GEMM speed: the batched index build against what it replaced.

``FCMScorer.index_repository`` is the one table-encode path: a chunk of
tables prepared in array passes, one expert-stacked dataset-encoder forward
per distinct segment count, one cache-fill pass, one GEMM + bit-pack for the
LSH.  What that must not move, under both precision policies:

* **(a) Chunk-mate independence, bitwise** — a table's cached encoding and
  column embeddings do not depend on what it was chunked with:
  alone, first, last, in chunks of 1 / 2 / 16 / all, in shuffled order —
  including one-column one-segment tables, whose lone row BLAS would send to
  ``gemv`` (last bit differs from ``gemm``) if the encoder did not double it.
* **(b) The per-table oracle** — over the nine golden shapes the cached
  entries are within 1e-12 (5e-5 float32) of ``FCMModel.encode_table`` table by
  table, and the LSH codes derived from them are equal.
* **(c) Preparation** — the array-pass ``prepare_table_input`` is bitwise the
  per-column loop kept here.
* **(d) GELU** — the cube by multiplication is within 4 ulp of the ``x ** 3``
  form on a dense grid including ±0, subnormals and ±40 (ulps of the output
  for ``x > 0``, of ``x / 2`` where the gate cancels; see the test).
* **(e) Stacked experts** — ``DataAggregationEncoder.forward`` against the
  five-chain forward kept here: outputs <= 1e-12, every parameter gradient
  <= 1e-10, MoE gates summing to one.
* **(g) The folded DA forward** — ``DataAggregationEncoder.folded_forward``
  (the build's DA layers, back-to-back affine maps composed) within 1e-12
  (5e-5 float32) of the graphed forward for ``beta`` 1-3; re-folded after an
  Adam step, a ``load_state_dict`` and a ``.data`` edit (bitwise a fresh
  model's fold) and only then; threads racing on a cold cache get the
  serial bits.
* **(h) The chunk as whole arrays, graph-free encoders** — a chunk prepared
  as whole arrays bitwise each table prepared alone; the cache its groups
  split per table; the transformer's and the chart encoder's array forwards
  bitwise the no-grad graph (1-2 layers, with and without
  positions, both dtypes; the chart encoder over 1-5 lines), rejecting what
  it rejects; ``array_softmax`` / ``array_gelu`` bitwise the ``Tensor``
  methods; training, ``model.forward``, ``relevance``, ``encode_table`` and
  the MoE gates reach no array forward, the build and a served query do.
* **LSH bulk add** — codes, buckets and ``export_codes()`` equal the
  per-vector bit loop kept here, on the golden corpus and under hypothesis
  vectors, up to 64 bits (and past it, where codes are Python integers).
* **The fixture model** — retrained through this forward, every parameter of
  the ledger fixture sums to within 1e-9 of what the parent's training gave.
* **(f) A perf floor** (skipped under ``REPRO_SKIP_PERF_TESTS=1``) — 600
  ledger-geometry tables build >= 1.3x faster than the per-table oracle loop.

The per-column preparation loop, the five-chain DA forward and the per-vector
hash loop live only here, as oracles.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fixture import fixture_records
from repro.charts import render_chart_for_table
from repro.data import Column, SynthConfig, Table, synth_table, synth_tables
from repro.fcm import (
    FCMConfig,
    FCMModel,
    FCMScorer,
    FCMTrainer,
    TrainerConfig,
    build_training_data,
)
from repro.fcm.chart_encoder import SegmentLineChartEncoder
from repro.fcm.da_layers import DataAggregationEncoder
from repro.fcm.dataset_encoder import SegmentDatasetEncoder
from repro.fcm.preprocessing import (
    TableInput,
    prepare_table_input,
    prepare_table_inputs,
    resample_series,
)
from repro.index import HybridQueryProcessor, LSHConfig, RandomHyperplaneLSH
from repro.nn import (
    Adam,
    Tensor,
    TransformerEncoder,
    array_gelu,
    array_softmax,
    concatenate,
    no_grad,
    stack,
    using_dtype,
)
from repro.serving import SearchService

from conftest import active_dtype, assert_equal_but_score_bits, dtype_tol
from test_rows_parity import _tiny_config, golden_tables

FIXTURES = Path(__file__).parent / "fixtures"
MODEL_SUMS = FIXTURES / "fixture_model_sums.json"
TOL = dtype_tol(1e-12, 5e-5)


# --------------------------------------------------------------------------- #
# Oracles: what ran before, kept here only
# --------------------------------------------------------------------------- #
def loop_prepare_table_input(table: Table, config: FCMConfig) -> TableInput:
    """The per-column preparation loop ``prepare_table_input`` replaced."""
    blocks = []
    for column in table.columns:
        values = np.asarray(column.values, dtype=np.float64)
        p2 = config.data_segment_size
        n2 = int(np.clip(int(np.ceil(values.shape[0] / p2)), 1, config.max_data_segments))
        resampled = resample_series(values, n2 * p2)
        if config.normalize_columns:
            std = resampled.std()
            if std > 1e-8:
                resampled = (resampled - resampled.mean()) / std
            else:
                resampled = resampled - resampled.mean()
        blocks.append(resampled.reshape(n2, p2))
    return TableInput(
        segments=np.stack(blocks).astype(config.numeric_dtype, copy=False),
        column_names=table.column_names,
        table_id=table.table_id,
    )


def five_chain_forward(encoder: DataAggregationEncoder, segments: np.ndarray):
    """The DA forward as five per-expert op chains: ``(blended, gates)``."""
    config = encoder.config
    sub = Tensor(
        np.asarray(segments, dtype=config.numeric_dtype).reshape(
            *segments.shape[:-1], 2**config.beta, config.sub_segment_size
        ),
        dtype=config.numeric_dtype,
    )
    roots = []
    for transformation in encoder.transformations:
        current = transformation(sub)
        for level in range(config.beta):
            count = current.shape[-2]
            paired = concatenate(
                [current[..., 0:count:2, :], current[..., 1:count:2, :]], axis=-1
            )
            current = encoder.hmrl.combiners[level](paired)
        roots.append(current.squeeze(axis=-2))
    scores = []
    for i, root in enumerate(roots):
        hidden = encoder.moe.gate_hidden[i](root).leaky_relu()
        scores.append(encoder.moe.gate_out[i](hidden).squeeze(axis=-1))
    gates = stack(scores, axis=-1).softmax(axis=-1)
    blended = None
    for i, root in enumerate(roots):
        contribution = root * gates[..., i].expand_dims(-1)
        blended = contribution if blended is None else blended + contribution
    return blended, gates


def loop_hash(lsh: RandomHyperplaneLSH, vector: np.ndarray) -> int:
    """The per-vector hash: one ``gemv``, then a Python loop over the bits."""
    code = 0
    for bit in (lsh._hyperplanes @ np.asarray(vector, dtype=lsh.dtype)) >= 0:
        code = (code << 1) | int(bit)
    return code


def oracle_entry(model: FCMModel, table: Table):
    """``(representations, column embeddings)`` of one table through the
    per-table reference forward, ``FCMModel.encode_table``."""
    with model.inference():
        reps = model.encode_table(loop_prepare_table_input(table, model.config)).numpy()
    return reps, reps.mean(axis=1)


# --------------------------------------------------------------------------- #
# (a) Chunk-mate independence, bitwise
# --------------------------------------------------------------------------- #
def _walk(table_id: str, rows: int, columns: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        table_id,
        [
            Column(f"c{c}", 3.0 * rng.standard_normal() + np.cumsum(rng.standard_normal(rows)))
            for c in range(columns)
        ],
    )


def mixed_tables():
    """Every segment count the tiny config allows (1-4), 1-3 columns, rows on
    and off the resampling grid — and four one-column one-segment tables."""
    shapes = [(7, 1), (32, 1), (20, 1), (32, 2), (33, 1), (64, 3), (70, 2), (96, 1)]
    shapes += [(100, 3), (128, 2), (200, 1), (31, 1), (48, 2), (128, 1), (5, 3), (90, 2)]
    return [_walk(f"mix{i:02d}", rows, cols, 100 + i) for i, (rows, cols) in enumerate(shapes)]


def _entries(scorer: FCMScorer, tables):
    return {t.table_id: scorer.encoded_table(t.table_id) for t in tables}


def _assert_same_bits(ours, reference, context) -> None:
    for name in ("representations", "column_embeddings"):
        a, b = getattr(ours, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (context, name)
        assert a.tobytes() == b.tobytes(), (context, name)
    assert ours.column_ranges == reference.column_ranges, context
    assert ours.column_names == reference.column_names, context


def test_an_encoding_does_not_depend_on_its_chunk_mates():
    model = FCMModel(_tiny_config())
    tables = mixed_tables()
    alone = {}
    for table in tables:  # each in a scorer, and a chunk, of its own
        scorer = FCMScorer(model)
        scorer.index_repository([table])
        alone[table.table_id] = scorer.encoded_table(table.table_id)
    lone_rows = [t for t in tables if alone[t.table_id].representations.shape[:2] == (1, 1)]
    assert len(lone_rows) >= 3  # a chunk whose flattened batch is a single row
    shuffled = list(tables)
    np.random.default_rng(3).shuffle(shuffled)
    orders = {
        "in order": tables,
        "reversed": tables[::-1],
        "shuffled": shuffled,
        "lone rows first": lone_rows + [t for t in tables if t not in lone_rows],
    }
    for order_name, order in orders.items():
        for batch_size in (1, 2, 16, 0):  # 0: the whole list in one chunk
            scorer = FCMScorer(model)
            scorer.index_repository(order, batch_size=batch_size)
            for table_id, entry in _entries(scorer, order).items():
                _assert_same_bits(entry, alone[table_id], (order_name, batch_size, table_id))
    # index_table is the same path over one table.
    scorer = FCMScorer(model)
    for table in tables[:4]:
        _assert_same_bits(scorer.index_table(table), alone[table.table_id], table.table_id)


def test_a_chunk_of_ledger_geometry_is_independent_too():
    """Uniform tables (one segment count, so one forward per chunk): chunks of
    1 / 2 / 16 / all give the same bits."""
    config = SynthConfig(40, num_rows=128, max_columns=3, num_clusters=8, seed=9)
    tables = [synth_table(i, config) for i in range(40)]
    model = FCMModel(_tiny_config())
    reference = FCMScorer(model)
    reference.index_repository(tables, batch_size=0)
    for batch_size in (1, 2, 16):
        scorer = FCMScorer(model)
        scorer.index_repository(tables, batch_size=batch_size)
        for table in tables:
            _assert_same_bits(
                scorer.encoded_table(table.table_id),
                reference.encoded_table(table.table_id),
                (batch_size, table.table_id),
            )


def test_the_encoder_still_rejects_what_it_rejected():
    """Every shape / emptiness ``ValueError`` of the dataset encoder, and the
    chart encoder's, which its array forward raises with the graph's message."""
    config = _tiny_config()
    model = FCMModel(config)
    encoder, p2 = model.dataset_encoder, config.data_segment_size
    empty = TableInput(np.zeros((0, 1, p2)), [], "empty")
    for call in (
        lambda: encoder(np.zeros((2, p2))),  # not (NC, N2, P2)
        lambda: encoder(np.zeros((0, 2, p2))),  # no surviving column
        lambda: encoder(np.zeros((1, 2, p2 + 1))),  # wrong segment size
        lambda: encoder.forward_many([]),
        lambda: encoder.forward_many([np.zeros((1, 2, p2)), np.zeros((1, 2, p2 - 1))]),
        lambda: encoder.forward_many([np.zeros((1, 2, p2)), np.zeros((0, 2, p2))]),
        lambda: encoder.da_encoder(np.zeros(p2)),
        lambda: model.encode_table(empty),
        lambda: model.encode_table_batch([empty]),
    ):
        with pytest.raises(ValueError):
            call()
    charts, f1 = model.chart_encoder, config.chart_segment_feature_dim
    for features in (
        np.zeros((4, f1)),  # not (M, N1, F1)
        np.zeros((1, 2, 3, f1)),
        np.zeros((2, config.max_chart_segments + 1, f1)),  # N1 > max_chart_segments
    ):
        with pytest.raises(ValueError) as graphed:
            charts(features)
        with pytest.raises(ValueError, match=re.escape(str(graphed.value))):
            charts.array_forward(features)


# --------------------------------------------------------------------------- #
# (b) The per-table oracle, over the nine golden shapes
# --------------------------------------------------------------------------- #
def test_the_build_matches_the_per_table_oracle():
    model = FCMModel(_tiny_config())
    tables = golden_tables()
    processor = HybridQueryProcessor(FCMScorer(model), LSHConfig(num_bits=16, hamming_radius=1))
    processor.index_repository(tables)
    shapes = set()
    for table in tables:
        entry = processor.scorer.encoded_table(table.table_id)
        reps, embeddings = oracle_entry(model, table)
        shapes.add(reps.shape[:2])
        assert entry.representations.dtype == reps.dtype == active_dtype()
        np.testing.assert_allclose(entry.representations, reps, rtol=0, atol=TOL)
        np.testing.assert_allclose(entry.column_embeddings, embeddings, rtol=0, atol=TOL)
        assert entry.column_ranges == [c.value_range() for c in table.columns]
        codes = sorted({loop_hash(processor.lsh, row) for row in embeddings})
        assert processor.lsh.export_codes()[table.table_id] == codes
    assert len(shapes) == 9


# --------------------------------------------------------------------------- #
# (c) Preparation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("normalize", [True, False])
def test_prepare_table_input_is_the_per_column_loop(normalize):
    config = _tiny_config().with_overrides(normalize_columns=normalize)
    constant = Table("flat", [Column("a", np.full(40, 2.5)), Column("b", np.arange(40.0))])
    for table in mixed_tables() + golden_tables()[::25] + [constant]:
        ours = prepare_table_input(table, config)
        loop = loop_prepare_table_input(table, config)
        assert ours.column_names == loop.column_names and ours.table_id == loop.table_id
        assert ours.segments.dtype == loop.segments.dtype == config.numeric_dtype
        assert ours.segments.shape == loop.segments.shape
        assert ours.segments.tobytes() == loop.segments.tobytes(), table.table_id
        for column in table.columns:  # never a view of the table's own values
            assert not np.shares_memory(ours.segments, column.values)


# --------------------------------------------------------------------------- #
# (d) GELU
# --------------------------------------------------------------------------- #
def test_gelu_by_multiplication_is_the_pow_form_within_4_ulp():
    dtype = active_dtype()
    info = np.finfo(dtype)
    grid = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 200_001),
            np.geomspace(1e-30, 40.0, 20_001),
            -np.geomspace(1e-30, 40.0, 20_001),
            [0.0, -0.0, 40.0, -40.0],
            info.smallest_subnormal * np.array([1.0, -1.0, 7.0, -1000.0]),
            info.tiny * np.array([1.0, -1.0, 0.5, -0.25]),
        ]
    ).astype(dtype)
    ours = Tensor(grid, dtype=dtype).gelu().numpy()
    c = float(np.sqrt(2.0 / np.pi))
    with np.errstate(under="ignore"):
        pow_form = 0.5 * grid * (1.0 + np.tanh(c * (grid + 0.044715 * grid**3)))
    assert ours.dtype == pow_form.dtype == dtype
    moved = np.abs(ours - pow_form)
    # Ulps of x / 2, the magnitude the (1 + tanh) gate multiplies: for x > 0
    # that is the output's own ulp (observed <= 1 there); for x < 0 the gate
    # cancels towards zero, so one ulp of the cube is many of the *output's*.
    assert np.all(moved <= 4 * np.spacing(np.abs(0.5 * grid)))
    positive = grid > 0
    assert np.all(moved[positive] <= 4 * np.spacing(np.abs(pow_form[positive])))
    assert ours[grid == 0].tolist() == [0.0] * int((grid == 0).sum())


# --------------------------------------------------------------------------- #
# (e) Stacked experts
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("lead", [(1,), (6,), (3, 4), (2, 1, 5)])
def test_the_stacked_da_forward_is_the_five_chain_one(lead):
    config = _tiny_config()
    encoder = FCMModel(config).dataset_encoder.da_encoder
    rng = np.random.default_rng(11)
    for parameter in encoder.parameters():  # biases start at zero: move them
        parameter.data += 0.05 * rng.standard_normal(parameter.shape).astype(parameter.dtype)
    segments = rng.standard_normal((*lead, config.data_segment_size))
    weights = rng.standard_normal((*lead, config.embed_dim)).astype(config.numeric_dtype)

    def run(forward):
        for parameter in encoder.parameters():
            parameter.zero_grad()
        blended, gates = forward()
        (blended * weights).sum().backward()
        return blended.numpy(), gates.numpy(), [p.grad.copy() for p in encoder.parameters()]

    ours = run(lambda: encoder(segments, return_gates=True))
    chains = run(lambda: five_chain_forward(encoder, segments))
    assert ours[0].shape == (*lead, config.embed_dim)
    assert ours[1].shape == (*lead, config.num_experts)
    np.testing.assert_allclose(ours[0], chains[0], rtol=0, atol=TOL)
    np.testing.assert_allclose(ours[1], chains[1], rtol=0, atol=TOL)
    np.testing.assert_allclose(ours[1].sum(axis=-1), 1.0, rtol=0, atol=dtype_tol(1e-14, 1e-6))
    named = [name for name, _ in encoder.named_parameters()]
    for name, grad, reference in zip(named, ours[2], chains[2]):
        assert grad.shape == reference.shape and grad.dtype == reference.dtype, name
        np.testing.assert_allclose(
            grad, reference, rtol=0, atol=dtype_tol(1e-10, 5e-4), err_msg=name
        )
    # Outside the graph the same values, bit for bit.
    with FCMModel(config).inference():
        untracked = encoder(segments).numpy()
    assert untracked.tobytes() == ours[0].tobytes()


# --------------------------------------------------------------------------- #
# (g) The folded DA forward
# --------------------------------------------------------------------------- #
def _moved_da(config: FCMConfig, seed: int = 11) -> FCMModel:
    """A model whose DA parameters (biases included) are all non-zero."""
    model = FCMModel(config)
    rng = np.random.default_rng(seed)
    for parameter in model.dataset_encoder.da_encoder.parameters():
        parameter.data += 0.05 * rng.standard_normal(parameter.shape).astype(parameter.dtype)
    return model


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("lead", [(1,), (6,), (3, 4)])
def test_the_folded_da_forward_is_the_graphed_one(beta, lead):
    config = _tiny_config().with_overrides(beta=beta)
    model = _moved_da(config)
    encoder = model.dataset_encoder.da_encoder
    segments = np.random.default_rng(beta).standard_normal((*lead, config.data_segment_size))
    with model.inference():
        graphed = encoder(segments).numpy()
    folded = encoder.folded_forward(segments)
    assert folded.shape == graphed.shape == (*lead, config.embed_dim)
    assert folded.dtype == graphed.dtype == active_dtype()
    np.testing.assert_allclose(folded, graphed, rtol=0, atol=TOL)


def _fresh_fold(model: FCMModel, segments: np.ndarray) -> np.ndarray:
    """The fold of a new model loaded with ``model``'s weights, never folded before."""
    fresh = FCMModel(model.config)
    fresh.load_state_dict(model.state_dict())
    return fresh.dataset_encoder.da_encoder.folded_forward(segments)


def test_the_fold_follows_every_kind_of_weight_edit(monkeypatch):
    """The cached fold is recomputed after an in-place Adam step, a
    ``load_state_dict`` and a ``.data`` edit — and only then."""
    model = _moved_da(_tiny_config())
    encoder = model.dataset_encoder.da_encoder
    segments = np.random.default_rng(5).standard_normal((7, 3, model.config.data_segment_size))
    folds = []
    real_fold = DataAggregationEncoder._fold

    def counting_fold(self):
        folds.append(self)
        return real_fold(self)

    def adam_step():
        optimizer = Adam(model.parameters(), lr=1e-2)
        (encoder(segments) * encoder(segments)).sum().backward()
        optimizer.step()

    def load_other():
        model.load_state_dict(_moved_da(model.config, seed=12).state_dict())

    def edit_data():
        encoder.moe.gate_hidden[3].bias.data[...] += 0.25

    monkeypatch.setattr(DataAggregationEncoder, "_fold", counting_fold)
    before = encoder.folded_forward(segments)
    assert encoder.folded_forward(segments).tobytes() == before.tobytes()
    assert folds == [encoder]  # unchanged weights: the cached fold
    for edit in (adam_step, load_other, edit_data):
        edit()
        after = encoder.folded_forward(segments)
        assert after.tobytes() != before.tobytes(), edit.__name__
        assert after.tobytes() == _fresh_fold(model, segments).tobytes(), edit.__name__
        before = after


def test_threads_folding_at_once_give_the_serial_result():
    """Encode threads racing to fill a cold fold cache (more threads than
    cores, a short switch interval) each get the serial bits."""
    model = _moved_da(_tiny_config())
    encoder = model.dataset_encoder.da_encoder
    segments = np.random.default_rng(6).standard_normal((40, model.config.data_segment_size))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(8):  # each round a weight edit, then a race
            encoder.transformations[round_number % 5].mlp.layers[1].bias.data[...] += 0.01
            serial = _fresh_fold(model, segments).tobytes()
            barrier, results = threading.Barrier(4), [None] * 4

            def fold(slot):
                barrier.wait()
                results[slot] = encoder.folded_forward(segments).tobytes()

            threads = [threading.Thread(target=fold, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [serial] * 4, round_number
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# (h) The chunk as whole arrays: preparation, graph-free encoders, cache
# --------------------------------------------------------------------------- #
def _overflowing() -> Table:
    """Columns whose sum and sum of squares overflow float64."""
    return Table(
        "huge", [Column("a", np.full(64, 1e307)), Column("b", np.linspace(1e306, 1.7e308, 64))]
    )


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")  # raw 1e307 in float32
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("normalize", [True, False])
def test_chunk_wide_preparation_is_the_per_table_one(normalize, dtype):
    """Every column of a chunk with mixed row counts (resampled and exact,
    several row counts per segment count), 1-3 columns a table: the table's
    slice of its group is bitwise ``prepare_table_input`` on the table alone
    and the per-column loop, and the ranges are the columns' own."""
    config = _tiny_config().with_overrides(normalize_columns=normalize, dtype=dtype)
    constant = Table("flat", [Column("a", np.full(40, 2.5)), Column("b", np.arange(40.0))])
    tables = mixed_tables() + golden_tables()[::25] + [constant, _overflowing()]
    batch = prepare_table_inputs(tables, config)
    segment_counts = {prepare_table_input(t, config).segments.shape[1] for t in tables}
    assert len(batch.groups) == len(segment_counts)
    for position, table in enumerate(tables):
        group, start, stop = batch.slots[position]
        ours = batch.groups[group][start:stop]
        alone = prepare_table_input(table, config)
        assert batch.table_ids[position] == alone.table_id == table.table_id
        assert batch.column_names[position] == alone.column_names == table.column_names
        assert ours.dtype == alone.segments.dtype == np.dtype(dtype)
        assert ours.shape == alone.segments.shape
        assert ours.tobytes() == alone.segments.tobytes(), table.table_id
        if normalize:
            assert np.isfinite(ours).all(), table.table_id
        if table.table_id != "huge":  # the loop normalises that one to NaN
            assert ours.tobytes() == loop_prepare_table_input(table, config).segments.tobytes()
        ranges = list(zip(batch.lows[group][start:stop], batch.highs[group][start:stop]))
        assert ranges == [column.value_range() for column in table.columns]


def _moved_transformer(layers: int, positions: bool) -> TransformerEncoder:
    rng = np.random.default_rng(layers)
    encoder = TransformerEncoder(
        16, 2, layers, max_positions=4 if positions else None, rng=rng
    )
    for parameter in encoder.parameters():  # biases and norms start flat: move them
        parameter.data += 0.1 * rng.standard_normal(parameter.shape).astype(parameter.dtype)
    return encoder


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("positions", [True, False])
@pytest.mark.parametrize("layers", [1, 2])
def test_the_graph_free_transformer_is_the_no_grad_graph(layers, positions, dtype):
    with using_dtype(dtype):
        encoder = _moved_transformer(layers, positions)
    encoder.eval()
    rng = np.random.default_rng(7)
    for shape in [(6, 4, 16), (3, 1, 16), (1, 1, 16), (2, 3, 16)]:  # (1, 1): a lone segment
        x = rng.standard_normal(shape).astype(dtype)
        with no_grad():
            graphed = encoder(Tensor(x, dtype=dtype)).numpy()
        ours = encoder.array_forward(x)
        assert ours.dtype == graphed.dtype == np.dtype(dtype)
        assert ours.shape == graphed.shape
        assert ours.tobytes() == graphed.tobytes(), shape


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("positions", [True, False])
@pytest.mark.parametrize("layers", [1, 2])
def test_the_chart_array_forward_is_the_no_grad_graph(layers, positions, dtype):
    """The served query's chart encoder: 1-5 lines, a full and a short
    segment sequence, bitwise ``forward`` under ``no_grad``."""
    config = _tiny_config().with_overrides(num_layers=layers, dtype=dtype)
    encoder = FCMModel(config).chart_encoder
    if not positions:
        with using_dtype(dtype):
            encoder.encoder = TransformerEncoder(config.embed_dim, config.num_heads, layers)
    encoder.eval()
    rng = np.random.default_rng(layers)
    for parameter in encoder.parameters():  # biases and norms start flat: move them
        parameter.data += 0.1 * rng.standard_normal(parameter.shape).astype(parameter.dtype)
    f1 = config.chart_segment_feature_dim
    for lines in range(1, 6):
        for segments in (config.max_chart_segments, 3):
            features = rng.random((lines, segments, f1))
            with no_grad():
                graphed = encoder(features).numpy()
            ours = encoder.array_forward(features)
            assert ours.dtype == graphed.dtype == np.dtype(dtype)
            assert ours.shape == graphed.shape == (lines, segments, config.embed_dim)
            assert ours.tobytes() == graphed.tobytes(), (lines, segments)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_the_array_softmax_and_gelu_are_the_tensor_methods(dtype):
    """Bitwise, with and without a graph, and the input left as it was."""
    rng = np.random.default_rng(4)
    for shape, axis in [((7,), -1), ((3, 5), 0), ((5, 9), 1), ((2, 4, 6), -1), ((4, 3, 2), 1)]:
        x = (8.0 * rng.standard_normal(shape)).astype(dtype)
        kept = x.copy()
        softmax, gelu = array_softmax(x, axis=axis), array_gelu(x)
        assert np.array_equal(x, kept)
        assert softmax.dtype == gelu.dtype == np.dtype(dtype)
        for tracked in (True, False):
            tensor = Tensor(x, requires_grad=tracked, dtype=dtype)
            assert softmax.tobytes() == tensor.softmax(axis=axis).data.tobytes()
            assert gelu.tobytes() == tensor.gelu().data.tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("da", [True, False])
def test_the_cache_is_the_batch_split_per_table(da, dtype):
    """Cached column means are bitwise each table's own ``mean(axis=1)`` and
    its ranges the columns' ``value_range``; with the DA layers off the
    encoding is bitwise the graphed ``encode_table`` (no fold in between)."""
    model = FCMModel(_tiny_config().with_overrides(enable_da_layers=da, dtype=dtype))
    tables = mixed_tables() + [_overflowing()]
    scorer = FCMScorer(model)
    scorer.index_repository(tables, batch_size=5)
    for table in tables:
        entry = scorer.encoded_table(table.table_id)
        reps = entry.representations
        assert reps.dtype == np.dtype(dtype) and np.isfinite(reps).all()
        assert entry.column_embeddings.tobytes() == reps.mean(axis=1).tobytes()
        assert entry.column_ranges == [column.value_range() for column in table.columns]
        if not da:
            with model.inference():
                graphed = model.encode_table(prepare_table_input(table, model.config)).numpy()
            assert reps.tobytes() == graphed.tobytes(), table.table_id


@pytest.mark.parametrize("da", [True, False])
def test_only_the_build_and_a_served_query_reach_an_array_forward(monkeypatch, da):
    """Training, ``model.forward``, ``relevance``, ``encode_table(_batch)`` and
    the MoE gates keep the graph; the build runs the dataset encoder's array
    forward (the DA layers folded), a served query the chart encoder's."""
    reached = []
    for name, owner in (
        ("fold", DataAggregationEncoder),
        ("tables", SegmentDatasetEncoder),
        ("chart", SegmentLineChartEncoder),
        ("transformer", TransformerEncoder),
    ):
        real = getattr(owner, "folded_forward" if name == "fold" else "array_forward")

        def recorded(self, x, name=name, real=real):
            reached.append(name)
            return real(self, x)

        monkeypatch.setattr(owner, real.__name__, recorded)
    config = _tiny_config().with_overrides(enable_da_layers=da)
    model = FCMModel(config)
    corpus = SynthConfig(4, num_rows=64, max_columns=2, num_clusters=4, seed=13)
    data = build_training_data(fixture_records(corpus), config, aggregated_fraction=0.5, seed=0)
    before = model.state_dict()
    trainer = FCMTrainer(
        model, TrainerConfig(epochs=1, batch_size=4, num_negatives=1, relevance_max_points=24)
    )
    assert len(trainer.train(data).epochs) == 1
    assert any(not np.array_equal(before[k], v) for k, v in model.state_dict().items())
    example = data.examples[0]
    chart, table = example.chart_input, data.table_inputs[example.table_id]
    model.forward(chart, table).backward()
    model.relevance(chart, table)
    with model.inference():
        model.encode_table(table)
        model.encode_table_batch([table])
    model.dataset_encoder.moe_gate_weights(table.segments[0])
    assert reached == []
    tables = list(synth_tables(corpus))
    service = SearchService(model)
    service.build(tables)
    assert set(reached) == {"tables", "transformer"} | ({"fold"} if da else set())
    del reached[:]
    query = render_chart_for_table(tables[1], tables[1].column_names, spec=config.chart_spec)
    assert len(service.query(query, k=2).ranking) == 2
    assert sorted(reached) == ["chart", "transformer"]


# --------------------------------------------------------------------------- #
# LSH bulk add
# --------------------------------------------------------------------------- #
def _loop_index(lsh: RandomHyperplaneLSH, entries):
    """``codes`` and ``buckets`` as the per-vector loop fills them."""
    codes, buckets = {}, {}
    for table_id, embeddings in entries:
        for row in np.atleast_2d(embeddings):
            code = loop_hash(lsh, row)
            codes.setdefault(table_id, set()).add(code)
            buckets.setdefault(code, set()).add(table_id)
    return {t: sorted(c) for t, c in codes.items()}, buckets


def test_lsh_bulk_add_is_the_per_vector_loop_on_the_golden_corpus():
    model = FCMModel(_tiny_config())
    tables = golden_tables()
    processor = HybridQueryProcessor(FCMScorer(model), LSHConfig(num_bits=16, hamming_radius=2))
    processor.index_repository(tables)
    entries = [
        (t.table_id, processor.scorer.encoded_table(t.table_id).column_embeddings)
        for t in tables
    ]
    codes, buckets = _loop_index(processor.lsh, entries)
    assert processor.lsh.export_codes() == codes
    assert processor.lsh.buckets == buckets
    # Table by table (``add``) and all at once (the build) agree.
    one_by_one = RandomHyperplaneLSH(
        model.config.embed_dim, processor.lsh_config, dtype=model.config.numeric_dtype
    )
    for table_id, embeddings in entries:
        one_by_one.add(table_id, embeddings)
    assert one_by_one.export_codes() == codes and one_by_one.buckets == buckets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bits=st.sampled_from([1, 2, 7, 16, 31, 32, 33, 63, 64, 65, 80]),
    dim=st.integers(1, 24),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-12, 1.0, 1e9]),
)
def test_lsh_hash_matrix_is_the_bit_loop(bits, dim, rows, seed, scale):
    lsh = RandomHyperplaneLSH(dim, LSHConfig(num_bits=bits, seed=seed), dtype=active_dtype())
    vectors = scale * np.random.default_rng(seed).standard_normal((rows, dim))
    codes = lsh.hash_matrix(vectors)
    assert all(type(code) is int and 0 <= code < 2**bits for code in codes)
    assert codes == [loop_hash(lsh, row) for row in vectors]
    assert [lsh.hash_vector(row) for row in vectors] == codes
    lsh.add("t", vectors)
    assert lsh.export_codes() == {"t": sorted(set(codes))}
    assert lsh.query(vectors[:1]) == {"t"}


# --------------------------------------------------------------------------- #
# Goldens: the comparison that licenses a re-record
# --------------------------------------------------------------------------- #
def test_the_golden_comparison_reads_only_score_bits():
    golden = {"id": "t1", "score": (0.75).hex(), "ranking": [["a", (0.5).hex()], ["b", "0x0p+0"]]}
    moved = json.loads(json.dumps(golden))
    moved["score"] = (0.75 + 2e-13).hex()
    moved["ranking"][0][1] = (0.5 - 4e-13).hex()
    assert assert_equal_but_score_bits(moved, golden, 1e-12) == pytest.approx(4e-13, rel=1e-3)
    assert assert_equal_but_score_bits(golden, golden, 0.0) == 0.0
    for path, value in ((("id",), "t2"), (("score",), (0.75 + 1e-9).hex()), (("ranking", 1, 0), "c")):
        broken = json.loads(json.dumps(golden))
        target = broken
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(AssertionError):
            assert_equal_but_score_bits(broken, golden, 1e-12)
    with pytest.raises(AssertionError):
        assert_equal_but_score_bits({"ranking": []}, {"ranking": [["a", "0x0p+0"]]}, 1e-12)


# --------------------------------------------------------------------------- #
# The fixture model, retrained through this forward
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.skipif(
    active_dtype() != np.float64, reason="the golden holds float64 sums (float32 training drifts)"
)
def test_the_retrained_fixture_model_is_the_parents():
    from repro.bench.fixture import (
        FIXTURE_AGGREGATED_FRACTION,
        FIXTURE_CORPUS,
        FIXTURE_TRAINER,
        _fixture_key,
        trained_fixture_model,
    )

    golden = json.loads(MODEL_SUMS.read_text())
    config = FCMConfig(**golden["model_config"])
    key = _fixture_key(config, FIXTURE_CORPUS, FIXTURE_TRAINER, FIXTURE_AGGREGATED_FRACTION)
    assert key == golden["fixture_key"]
    model = trained_fixture_model(config)
    sums = {name: float(p.data.sum(dtype=np.float64)) for name, p in model.named_parameters()}
    assert sorted(sums) == sorted(golden["parameter_sums"])
    for name, recorded in golden["parameter_sums"].items():
        assert abs(sums[name] - float.fromhex(recorded)) <= 1e-9, name


# --------------------------------------------------------------------------- #
# (f) Perf floor
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="perf regression thresholds disabled via REPRO_SKIP_PERF_TESTS=1 "
    "(loaded or throttled machine)",
)
def test_the_batched_build_beats_the_per_table_loop():
    config = FCMConfig(
        embed_dim=32, num_heads=2, num_layers=1, data_segment_size=32, max_data_segments=8, beta=2
    )
    corpus = SynthConfig(600, num_rows=256, max_columns=3, num_clusters=16, seed=4)
    tables = [synth_table(i, corpus) for i in range(600)]
    model = FCMModel(config)

    def oracle_loop():
        return [oracle_entry(model, table) for table in tables]

    def build():
        FCMScorer(model).index_repository(tables)

    def best_of(fn, rounds=3):
        fn()
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        return min(timings)

    loop, batched = best_of(oracle_loop), best_of(build)
    assert loop / batched >= 1.3, f"loop {loop:.3f}s vs batched {batched:.3f}s"
