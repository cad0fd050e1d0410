"""Inference-only fused kernel and the one pack type it reads.

Speed layers for query-time scoring with the HCMAN matcher: a graph-free
kernel and one table-side pack type, :class:`ExactPack`, with two owners in
the scorer — the exact pack of verification and the coarse pack of the int8
pre-filter.  The numeric contract, stated once (``tests/test_kernel_parity.py``
pins the first two and the fifth against the graphed matcher and against
scores and kept sets recorded before the kernel was laid out batch-last,
``tests/test_exact_pack_maintenance.py`` the third for both packs,
``tests/test_score_rows.py`` the fourth):

* the pack forward agrees with the graphed batched matcher path to
  **<= 1e-12 in float64 and <= 5e-5 in float32** (observed <= 4e-16: same
  arithmetic, reductions in another order) and ranks identically;
* an entry's score is independent of its co-candidates, of the pack that
  served it and of the order it was asked for in **up to the last bit**
  (every linear map is a GEMM whose columns BLAS blocks by batch size, and a
  padded batch sums a few exact zeros more);
* a maintained index-wide pack — exact or coarse — **equals a from-scratch
  build bitwise**, array for array, so its scores are bitwise a fresh
  scorer's;
* a full scan repaired from a chart's earlier one (``carried``) is **bitwise a
  fresh scan**: a kernel call is copied only where its every member is the
  same row at the same offset of a batch of the same size and padded shape;
* the coarse pass agrees with the graphed matcher over the same coarse rows
  to **<= 1e-5** and keeps the sets recorded in the goldens.

The layers:

* **Fused kernel** (:class:`FusedMatchKernel`) — the hot chain of
  :meth:`SegmentLevelAttention.forward_pairs` →
  :meth:`LineColumnAttention.forward_pairs` →
  :meth:`InteractionHead.forward_batch`, for one unpadded chart beside ``B``
  tables (the leading-1 chart batch), re-expressed as plain NumPy calls on
  arrays whose *candidate axis is the contiguous last one*.  No
  :class:`~repro.nn.Tensor` objects and no autograd graph; every max,
  softmax and weighted sum reduces over a short leading axis in ``B``-long
  vector passes, every linear map is ``Wᵀ @ (K, B)``, and the weighted
  poolings are single contractions with no product scratch.  The float64
  accumulation of the Tensor ops' ``sum``/``softmax`` denominators and their
  scalar-lifting dtype rules are kept.  The table-side key/value projections
  are query-independent, so serving never computes them inside the kernel:
  :meth:`FusedMatchKernel._hcman_core` takes them prebuilt and already
  batch-last, from a pack.

* **Pack** (:class:`ExactPack`, :func:`update_exact_pack`,
  :func:`exact_pack_scores`) — the HCMAN key/value projections of a set of
  entries, grouped into buckets of identical ``(NC, N2)`` shape, scored on
  unpadded same-shape batches with the y-tick column filter as one
  vectorised comparison per batch; buckets too sparse to be worth a kernel
  call each share a zero-padded one (:data:`CALL_OVERHEAD_CELLS`) and a
  dense one is cut only by scratch size (:data:`CALL_MAX_CELLS`).  The
  scorer keeps an index-wide exact pack for scans of more than one batch and
  projects smaller candidate sets into a transient pack per call; both
  index-wide packs are maintained across writes by re-projecting only the
  entries that changed.  The projections are computed per entry before they
  are laid out batch-last, so a row's bits do not depend on the rows stored
  beside it.

* **Coarse rows** (:func:`quantize_tables`, :func:`coarse_rows`) — a coarse
  row is a table's encoding quantized to int8 symmetrically with one scale
  factor per table (``x ≈ codes · scale``, ``scale = max|x| / 127``),
  dequantized, mean-pooled :data:`PREFILTER_POOL` segment rows at a time,
  re-quantized and dequantized at :data:`PREFILTER_DTYPE`.  Nothing int8 is
  cached or persisted: the rows are computed from the encodings when the
  coarse pack projects them.  The coarse pack holds one per scorable id and per
  stream segment, every column range open ``(-inf, +inf)`` so the y-tick
  filter keeps every column, and the pre-filter scores it with the **real
  matcher** — :func:`exact_pack_scores` with ``exact=False`` (native
  accumulation) on a ``pool``-times-smaller input, or the graphed path over
  the same rows for matchers the kernel does not support — keeping only the
  ``top-(k · overscan)`` candidates for exact re-scoring.  Because the coarse
  score passes through the same attention and MLP nonlinearities as the
  exact one, its ranking tracks the exact ranking closely — a raw
  dot-product proxy does not (the matcher's output is not monotone in
  representation similarity).  The coarse score never replaces the exact
  one: the final ranking is always produced by the full matcher on the kept
  set, so parity is a recall property (pinned by tests on the trained
  fixture) rather than a numerical one.

The module deliberately has no dependency on the scorer or serving layers;
it consumes raw ``np.ndarray`` encodings plus live parameter references from
the matcher modules.  The kernel reads weights at call time; a pack freezes
``key_proj``/``value_proj`` and therefore carries a copy of those parameters —
when :meth:`FusedMatchKernel.weights_version` has moved, owners compare it
with :meth:`FusedMatchKernel.projections_current` and rebuild after a
training step or ``load_state_dict``.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn import ParameterVersion
from .matcher import HCMANMatcher

__all__ = [
    "FusedMatchKernel",
    "QuantizedTable",
    "PREFILTER_DTYPE",
    "PREFILTER_POOL",
    "quantize_tables",
    "coarse_rows",
    "ExactBucket",
    "ExactPack",
    "build_exact_pack",
    "update_exact_pack",
    "exact_pack_scores",
    "CALL_OVERHEAD_CELLS",
    "CALL_MAX_CELLS",
]


def _cast(array: np.ndarray, dtype) -> np.ndarray:
    """``array`` at ``dtype`` — the array itself when it already is."""
    return array if array.dtype == dtype else array.astype(dtype)


def _project(x: np.ndarray, layer) -> np.ndarray:
    """``x @ W + b`` over ``(..., K)`` rows — the :class:`Linear` forward.

    When ``x`` is narrower than the stored weights (the pre-filter's float32
    coarse pass under a float64 session) the tiny weight/bias matrices are
    cast down so the GEMM runs at the input precision instead of silently
    promoting to a float64 contraction.
    """
    out = x @ _cast(layer.weight.data, x.dtype)
    if layer.bias is not None:
        out += _cast(layer.bias.data, x.dtype)
    return out


def _project_last(x: np.ndarray, layer) -> np.ndarray:
    """The same forward over batch-last ``(..., K, B)`` slabs: ``Wᵀ @ x + b``,
    one GEMM of ``B`` columns per slab."""
    out = np.matmul(_cast(layer.weight.data, x.dtype).T, x)
    if layer.bias is not None:
        out += _cast(layer.bias.data, x.dtype)[:, None]
    return out


def _batch_last(array: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous copy of ``(B, ...)`` ``array`` laid out ``(..., B)``."""
    return np.array(array.transpose(*range(1, array.ndim), 0), order="C")


def _sum(x: np.ndarray, axis, acc) -> np.ndarray:
    """``Tensor.sum``: accumulate at ``acc`` (float64 on the exact path,
    ``None`` = natively on the coarse one), result at the input dtype."""
    return x.sum(axis=axis, dtype=acc).astype(x.dtype, copy=False)


def _softmax(x: np.ndarray, axis: int, acc) -> np.ndarray:
    """``Tensor.softmax`` over a leading ``axis``, denominator as :func:`_sum`."""
    weights = np.exp(x - x.max(axis=axis, keepdims=True))
    denominator = weights.sum(axis=axis, keepdims=True, dtype=acc)
    weights /= denominator.astype(x.dtype, copy=False)
    return weights


def _mean(x: np.ndarray, mask: Optional[np.ndarray], acc) -> np.ndarray:
    """Per-candidate mean of ``(..., B)`` ``x`` over its leading axes,
    restricted to ``mask`` when there is one — ``Tensor.mean`` and
    :func:`repro.fcm.matcher._masked_mean`: a sum times ``1 / count``."""
    axes = tuple(range(x.ndim - 1))
    if mask is None:
        count = np.asarray(x.size // x.shape[-1], dtype=x.dtype)
    else:
        count = np.maximum(mask.sum(axis=axes), 1).astype(x.dtype)
        x = np.where(mask, x, np.asarray(0.0, dtype=x.dtype))
    return _sum(x, axes, acc) * (1.0 / count)


def _additive_mask(valid: np.ndarray, dtype) -> np.ndarray:
    """``0`` where ``valid`` and ``-inf`` elsewhere: added to a similarity it
    is the matcher's ``masked_keep(sim, valid, -inf)`` (a masked cell can win
    no max and gets exactly zero softmax weight) as one broadcast pass."""
    return np.where(valid, np.asarray(0.0, dtype=dtype), np.asarray(-np.inf, dtype=dtype))


class FusedMatchKernel:
    """Graph-free replacement for ``HCMANMatcher.forward_pairs`` on one
    unpadded chart beside ``B`` tables.

    Supports :class:`HCMANMatcher` with the shipped two-layer ReLU head; any
    other matcher (the :class:`~repro.fcm.matcher.AveragedMatcher` ablation
    included) reports ``supported == False`` and callers take the Tensor
    path.  Parameter values are read live on every call: besides the matcher
    the kernel holds only what :meth:`weights_version` compares them with.
    """

    def __init__(self, matcher) -> None:
        self._matcher = matcher
        #: ``weights_version()`` moves whenever a matcher parameter does: one
        #: comparison per query tells every owner of state computed from the
        #: matcher whether to look closer.
        self.weights_version = ParameterVersion(matcher)

    @property
    def supported(self) -> bool:
        matcher = self._matcher
        return (
            isinstance(matcher, HCMANMatcher)
            and len(matcher.head.mlp.layers) == 2
            and matcher.head.mlp.activation_name == "relu"
        )

    def projection_weights(self) -> Tuple[np.ndarray, ...]:
        """The live parameters that cached table-side projections depend on:
        the segment-level key and value weights and biases."""
        seg = self._matcher.segment_level
        return tuple(
            parameter.data
            for layer in (seg.key_proj, seg.value_proj)
            for parameter in (layer.weight, layer.bias)
            if parameter is not None
        )

    def projections_current(self, frozen: Sequence[np.ndarray]) -> bool:
        """Whether ``frozen`` (a copy of :meth:`projection_weights` taken at
        cache-build time) still equals the live parameters."""
        live = self.projection_weights()
        return len(live) == len(frozen) and all(
            np.array_equal(a, b) for a, b in zip(live, frozen)
        )

    def chart_side(self, chart_repr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The query's half of SL-SAN, computed once per query however many
        kernel calls score it: the segment queries ``(M·N1, K)``, already
        scaled by ``1 / sqrt(K)``, and the chart value projections laid out
        ``(M, K, N1)``, both at ``chart_repr``'s dtype."""
        seg = self._matcher.segment_level
        m, n1, dim = chart_repr.shape
        queries = _project(chart_repr.reshape(m * n1, dim), seg.query_proj)
        queries *= np.asarray(1.0 / np.sqrt(dim), dtype=queries.dtype)
        return queries, _project(chart_repr, seg.value_proj).swapaxes(1, 2)

    def _hcman_core(
        self,
        chart: Tuple[np.ndarray, np.ndarray],
        keys: np.ndarray,
        values: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """``(B,)`` HCMAN scores of one candidate batch, laid out batch-last.

        ``chart`` is :meth:`chart_side` of the query; ``keys``
        ``(NC·N2, K, B)`` and ``values`` ``(NC, N2, K, B)`` are the key/value
        projections of the candidates, served from a prebuilt
        :class:`ExactPack` (they depend on the candidates and the matcher
        weights, not on the query) and only read here; ``segment_mask`` ``(NC, N2, B)`` and ``column_mask`` ``(NC, B)``
        mark the real cells and the columns that survived the filter.  The
        candidate axis is the contiguous last one, so every max / softmax /
        weighted sum of SL-SAN → LL-SAN → head reduces over a leading axis in
        ``B``-long vector passes and every linear map is ``Wᵀ @ (K, B)``; a
        mask that is true everywhere is not applied.

        ``exact=True`` (exact verification) accumulates softmax
        denominators, means and norms in float64 as the Tensor graph does:
        scores agree with the graphed path to <= 1e-12 in float64 (observed
        <= 4e-16; the reductions run in another order) and <= 5e-5 in
        float32.  ``exact=False`` (the coarse pre-filter pass) accumulates in
        the input dtype — the scores only feed the overscan cut, and
        mixed-precision reductions are the dominant cost of a float32 batch.
        """
        queries, chart_values = chart
        matcher = self._matcher
        line = matcher.line_level
        dtype = values.dtype
        acc = np.float64 if exact else None
        m, dim, n1 = chart_values.shape
        nc, n2, _, b = values.shape
        seg_valid = None if segment_mask.all() else segment_mask
        col_valid = None if column_mask.all() else column_mask

        # --- SL-SAN ---------------------------------------------------- #
        sim = np.matmul(queries, keys)  # (NC·N2, M·N1, B): one GEMM per cell
        if seg_valid is not None:
            sim += _additive_mask(seg_valid, dtype).reshape(nc * n2, 1, b)
        chart_scores = sim.max(axis=0).reshape(m, n1, b)
        table_scores = sim.max(axis=1).reshape(nc, n2, b)  # -inf when masked
        alive_scores = table_scores
        if seg_valid is not None:
            # A fully masked column is all -inf (a NaN softmax); the column
            # mask discards it below, so any finite placeholder works.
            alive_scores = np.where(
                seg_valid.any(axis=1, keepdims=True),
                table_scores,
                np.asarray(0.0, dtype=dtype),
            )
        lines = np.matmul(chart_values, _softmax(chart_scores, 1, acc))  # (M, K, B)
        columns = np.einsum("cskb,csb->ckb", values, _softmax(alive_scores, 1, acc))

        # --- LL-SAN ---------------------------------------------------- #
        sim2 = np.einsum(
            "mkb,ckb->mcb",
            _project_last(lines, line.query_proj),
            _project_last(columns, line.key_proj),
        )
        sim2 *= np.asarray(1.0 / np.sqrt(dim), dtype=dtype)
        if col_valid is not None:
            sim2 += _additive_mask(col_valid, dtype)
        line_scores = sim2.max(axis=1)  # (M, B)
        column_scores = sim2.max(axis=0)  # (NC, B); -inf when masked
        chart_vecs = np.einsum(
            "mkb,mb->kb",
            _project_last(lines, line.value_proj),
            _softmax(line_scores, 0, acc),
        )
        table_vecs = np.einsum(
            "ckb,cb->kb",
            _project_last(columns, line.value_proj),
            _softmax(column_scores, 0, acc),
        )

        # --- Interaction head ------------------------------------------ #
        eps = np.asarray(1e-8, dtype=dtype)
        product = chart_vecs * table_vecs
        chart_norm = (_sum(chart_vecs * chart_vecs, 0, acc) + eps) ** 0.5
        table_norm = (_sum(table_vecs * table_vecs, 0, acc) + eps) ** 0.5
        joint = np.concatenate(
            [
                chart_vecs,
                table_vecs,
                product,
                np.abs(chart_vecs - table_vecs),
                np.stack(
                    [
                        _sum(product, 0, acc) / (chart_norm * table_norm),
                        _mean(chart_scores, None, acc),
                        _mean(table_scores, seg_valid, acc),
                        _mean(line_scores, None, acc),
                        _mean(column_scores, col_valid, acc),
                    ]
                ),
            ]
        )
        fc0, fc1 = matcher.head.mlp.layers
        hidden = _project_last(joint, fc0)
        np.maximum(hidden, 0, out=hidden)
        return 1.0 / (1.0 + np.exp(-_project_last(hidden, fc1)[0]))


# ---------------------------------------------------------------------- #
# int8 symmetric quantization and the coarse rows
# ---------------------------------------------------------------------- #
class QuantizedTable(NamedTuple):
    """int8 copy of one table's encodings: ``representations ≈ codes · scale``."""

    codes: np.ndarray  # (NC, N2, K) int8 — mirrors the representation shape
    scale: float  # dequantization multiplier; 0.0 for all-zero tables


def quantize_tables(tables: Sequence[np.ndarray]) -> List[QuantizedTable]:
    """Symmetric per-table int8 quantization of several non-empty
    encodings in one array pass; each table's codes and scale are what it
    gets alone, bit for bit.

    ``scale = max|x| / 127`` so a table's full dynamic range maps onto
    ``[-127, 127]``; an all-zero table, or one whose maximum is not finite,
    gets ``scale = 0.0`` and all-zero codes instead of a division by zero.
    """
    sizes = [reps.size for reps in tables]
    stops = np.cumsum(sizes)
    flat = np.concatenate([np.ravel(reps) for reps in tables])
    amax = np.maximum.reduceat(np.abs(flat), stops - sizes).astype(np.float64)
    scales = np.where(np.isfinite(amax), amax, 0.0) / 127.0
    # The divisor is rounded to the encodings' dtype, as a Python scalar is.
    divisor = np.repeat(np.where(scales > 0.0, scales, 1.0), sizes).astype(flat.dtype)
    quotient = flat / divisor
    quotient[np.repeat(scales == 0.0, sizes)] = 0.0
    codes = np.clip(np.rint(quotient, out=quotient), -127, 127).astype(np.int8)
    return [
        QuantizedTable(codes=codes[stop - reps.size : stop].reshape(reps.shape), scale=scale)
        for reps, stop, scale in zip(tables, stops.tolist(), scales.tolist())
    ]


#: Precision of the coarse pre-filter pass.  The coarse score only feeds
#: the overscan cut (survivors are re-scored exactly), so it always runs
#: in float32 — under a float64 session the narrower GEMMs roughly halve
#: the coarse pass without touching the recall floor.
PREFILTER_DTYPE = np.float32

#: Segment rows mean-pooled per coarse row (:func:`coarse_rows`).  The
#: coarse score is the real matcher on pooled input, so larger pools
#: trade score fidelity for speed: on undertrained models with near-flat
#: score landscapes a pool of 4 can push true top-k tables outside the
#: default overscan cut, while 2 keeps them at roughly half the FLOPs.
PREFILTER_POOL = 2


def _pooled_dequant(quantized: QuantizedTable, pool: int) -> np.ndarray:
    """Dequantize one table and mean-pool segment rows in groups of ``pool``.

    Returns ``(NC, ceil(N2 / pool), K)`` float64; trailing groups shorter
    than ``pool`` average only their real rows (no zero-dilution).
    """
    codes = quantized.codes.astype(np.float64) * float(quantized.scale)
    nc, n2, dim = codes.shape
    ns = max(1, -(-n2 // max(int(pool), 1)))
    padded = np.zeros((nc, ns * pool, dim), dtype=np.float64)
    padded[:, :n2] = codes
    counts = np.clip(n2 - np.arange(ns) * pool, 1, pool).astype(np.float64)
    return padded.reshape(nc, ns, pool, dim).sum(axis=2) / counts[None, :, None]


#: Tables per array pass of :func:`coarse_rows`.  A pass holds a few
#: full-precision copies of its tables' encodings, so a whole-index pass (the
#: coarse pack's first build after a restart) would raise peak memory by
#: several times the encodings; 128 tables keep that under a few MB at no
#: measurable cost in speed.
_COARSE_ROWS_CHUNK = 128


def coarse_rows(representations: Sequence[np.ndarray], dtype) -> List[np.ndarray]:
    """The coarse pass's input, one ``(NC, ceil(N2 / pool), K)`` array per
    ``(NC, N2, K)`` encoding: quantized to int8 with one scale per table
    (:func:`quantize_tables`), dequantized, mean-pooled
    :data:`PREFILTER_POOL` segment rows at a time, re-quantized and
    dequantized again at ``dtype`` — at :data:`PREFILTER_DTYPE` what a
    coarse-pack row is projected from, at the session dtype what the graphed
    pre-filter of a matcher without a kernel scores.  Each table's rows are
    what it gets alone, bit for bit."""
    rows: List[np.ndarray] = []
    for start in range(0, len(representations), _COARSE_ROWS_CHUNK):
        quantized = quantize_tables(representations[start : start + _COARSE_ROWS_CHUNK])
        pooled = quantize_tables([_pooled_dequant(q, PREFILTER_POOL) for q in quantized])
        rows += [q.codes.astype(dtype) * np.asarray(q.scale, dtype=dtype) for q in pooled]
    return rows


def _row_selector(rows: np.ndarray):
    """``rows`` as a slice when they are consecutive, else unchanged."""
    first = int(rows[0])
    if len(rows) == int(rows[-1]) - first + 1 and bool((np.diff(rows) == 1).all()):
        return slice(first, first + len(rows))
    return rows


def _select_rows(array: np.ndarray, selector) -> np.ndarray:
    """The rows a :func:`_row_selector` names, off the batch (last) axis.

    Consecutive rows are the exhaustive-verification common case: a plain
    slice makes every pack access a view.  Anything else is one gather per
    array — ``take``, because ``array[..., rows]`` hands back a batch-first
    buffer behind a transposed view.
    """
    if isinstance(selector, slice):
        return array[..., selector]
    return array.take(selector, axis=-1)


# ---------------------------------------------------------------------- #
# The pack: table-side projections, for exact verification and the coarse pass
# ---------------------------------------------------------------------- #
class ExactBucket(NamedTuple):
    """The pack rows of every entry with one ``(NC, N2)`` shape, batch-last:
    entry ``t`` is column ``t`` of the last axis of each array, so a kernel
    call reads a bucket — or a run of its rows — in place.  Row ``t`` holds
    the bits a bucket of that entry alone would (the projections are
    computed per entry, then transposed), which is what lets a maintained
    pack equal a rebuilt one bitwise."""

    keys: np.ndarray  # (NC·N2, K, T) — HCMAN key projection, at the entries' dtype
    values: np.ndarray  # (NC, N2, K, T) — HCMAN value projection
    lows: np.ndarray  # (NC, T) float64 — column value-range minima
    highs: np.ndarray  # (NC, T) float64 — column value-range maxima

    @property
    def rows(self) -> int:
        """Entries held (``T``)."""
        return self.values.shape[3]

    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(NC, N2)`` every entry of the bucket has."""
        return self.values.shape[:2]


class ExactPack(NamedTuple):
    """Query-independent half of an HCMAN scan: of exact verification when
    the entries are cached encodings with their column ranges, of the coarse
    pass when they are :func:`coarse_rows` with open ranges.

    Entries are numbered in sorted-id order and grouped into buckets of
    identical ``(NC, N2)`` shape (buckets in sorted shape order, rows in
    sorted-id order), so the layout — and with it every batch the kernel
    sees — is a pure function of the id set and the entry shapes, never of
    the order tables were added or removed in.  ``order`` / ``counts`` /
    ``rows`` are the plan of a scan of every entry — what
    :func:`exact_pack_scores` derives from ``positions`` — built with the
    layout; ``calls`` / ``signature`` complete it on the index-wide exact
    pack (:func:`_with_scan_plan`).  ``generation`` / ``born`` say which rows a
    score computed against an earlier pack of the lineage no longer
    describes.  Costs ``2 · NC · N2 · K`` floats per entry; never persisted.
    """

    index: Dict[str, int]  # entry id -> position in sorted-id order
    bucket_of: np.ndarray  # (T,) int64 — bucket holding each position
    row_of: np.ndarray  # (T,) int64 — row within that bucket
    order: np.ndarray  # (T,) int64 — positions, bucket by bucket
    counts: np.ndarray  # (buckets,) int64 — entries per bucket
    rows: np.ndarray  # (T,) int64 — ``row_of[order]``
    buckets: Tuple[ExactBucket, ...]
    weights: Tuple[np.ndarray, ...]  # frozen projection parameters
    nbytes: int
    generation: int  # never reused: no two packs of a process share one
    born: np.ndarray  # (T,) int64 — the generation that projected each row
    calls: Optional[tuple] = None  # ``(begin, end, buckets)`` per kernel call of that scan
    signature: Optional[np.ndarray] = None  # (T, 4) int64: offset in call, call size, NC, N2


#: One pack input row: ``(id, representations (NC, N2, K), column_ranges)``.
PackEntry = Tuple[str, np.ndarray, Sequence[Tuple[float, float]]]


def _project_bucket(kernel: FusedMatchKernel, entries: Sequence[PackEntry]) -> ExactBucket:
    """The bucket of same-shape ``entries``, one row each in the order given.

    The projections are computed row-major, on the operand shapes a batch of
    that shape alone has — one GEMM per entry (keys) and per column (values)
    — so a row is the same bits whichever entries are stacked with it, one
    included; each is then written out once, batch-last.
    """
    seg = kernel._matcher.segment_level
    nc, n2 = entries[0][1].shape[:2]
    batch = np.stack([entry[1] for entry in entries])
    ranges = np.asarray([entry[2] for entry in entries], dtype=np.float64).reshape(
        len(entries), nc, 2
    )
    return ExactBucket(
        keys=_batch_last(_project(batch.reshape(len(entries), nc * n2, -1), seg.key_proj)),
        values=_batch_last(_project(batch, seg.value_proj)),
        lows=_batch_last(ranges[..., 0]),
        highs=_batch_last(ranges[..., 1]),
    )


def _spliced(
    held: ExactBucket, rows: np.ndarray, new: np.ndarray, projected: Optional[ExactBucket]
) -> ExactBucket:
    """A bucket of ``len(new)`` rows at exact size: rows ``rows`` of ``held``
    where ``new`` is false and the rows of ``projected`` where it is true,
    each in order."""
    arrays = []
    for number, array in enumerate(held):
        out = np.empty(array.shape[:-1] + (len(new),), dtype=array.dtype)
        out[..., ~new] = array[..., rows]
        if projected is not None:
            out[..., new] = projected[number]
        arrays.append(out)
    return ExactBucket(*arrays)


#: Source of :attr:`ExactPack.generation`.
_GENERATIONS = count(1)


def update_exact_pack(
    kernel: FusedMatchKernel,
    pack: Optional[ExactPack],
    sorted_ids: Optional[Sequence[str]],
    fresh: Sequence[PackEntry],
) -> ExactPack:
    """The pack over exactly ``sorted_ids``, derived from ``pack``; ``None``
    means the ids ``pack`` (required then) holds, and walks none of them.

    ``fresh`` holds the entries to project: every id ``pack`` does not hold
    plus every id whose content changed since its row was projected; any
    other id keeps the row it has, and a held id missing from ``sorted_ids``
    loses it.  Only buckets that gain, lose or swap a row are re-allocated,
    at their exact new size; a bucket nobody touched keeps its arrays by
    reference and an emptied one disappears.  The layout stays the pure
    function of ids, shapes and contents :class:`ExactPack` documents, so
    the result equals, array for array, a from-scratch build over the same
    entries — which is this function with no ``pack``
    (:func:`build_exact_pack`).  Every pack gets a ``generation`` no other
    has, and the rows projected here are ``born`` in it.
    """
    generation = next(_GENERATIONS)
    if sorted_ids is None:
        index, source = pack.index, np.arange(len(pack.index))
    else:
        index = dict(zip(sorted_ids, range(len(sorted_ids))))
        held = pack.index if pack is not None else {}
        source = np.fromiter(
            map(held.get, sorted_ids, repeat(-1)), dtype=np.int64, count=len(index)
        )
    # Where each position's row comes from: a position of ``pack``, or -1 for
    # a row projected here (a position with neither is a ``KeyError`` below).
    fresh_at = {index[entry[0]]: entry for entry in fresh}
    source[list(fresh_at)] = -1
    projected = source < 0
    new_rows = np.flatnonzero(projected)
    shapes = np.empty((len(index), 2), dtype=np.int64)
    shapes[new_rows] = np.asarray(
        [fresh_at[position][1].shape[:2] for position in new_rows.tolist()], dtype=np.int64
    ).reshape(-1, 2)
    born = np.full(len(index), generation, dtype=np.int64)
    if not projected.all():
        held_shapes = np.asarray([bucket.shape for bucket in pack.buckets])
        shapes[~projected] = held_shapes[pack.bucket_of[source[~projected]]]
        born[~projected] = pack.born[source[~projected]]
    # Buckets in sorted-shape order, rows in sorted-id (= position) order.
    codes = shapes[:, 0] * (shapes[:, 1].max(initial=0) + 1) + shapes[:, 1]
    bucket_of = np.unique(codes, return_inverse=True)[1].astype(np.int64, copy=False)
    order = np.argsort(bucket_of, kind="stable")
    counts = np.bincount(bucket_of)
    starts = np.cumsum(counts) - counts
    row_of = np.empty(len(index), dtype=np.int64)
    row_of[order] = np.arange(len(index)) - np.repeat(starts, counts)
    buckets: List[ExactBucket] = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        members = order[start : start + count]
        new = projected[members]
        bucket = None
        if new.any():
            bucket = _project_bucket(
                kernel, [fresh_at[position] for position in members[new].tolist()]
            )
        if not new.all():
            kept = source[members[~new]]
            held_bucket = pack.buckets[pack.bucket_of[kept[0]]]
            if bucket is None and count == held_bucket.rows:
                bucket = held_bucket  # untouched: shared by reference
            else:
                bucket = _spliced(held_bucket, pack.row_of[kept], new, bucket)
        buckets.append(bucket)
    return ExactPack(
        index=index,
        bucket_of=bucket_of,
        row_of=row_of,
        order=order,
        counts=counts,
        rows=row_of[order],
        buckets=tuple(buckets),
        weights=(
            pack.weights
            if pack is not None
            else tuple(w.copy() for w in kernel.projection_weights())
        ),
        nbytes=sum(array.nbytes for bucket in buckets for array in bucket),
        generation=generation,
        born=born,
    )


def build_exact_pack(kernel: FusedMatchKernel, entries: Sequence[PackEntry]) -> ExactPack:
    """Project every entry once: the pack over ``entries``, which must be in
    sorted-id order — :func:`update_exact_pack` from nothing."""
    return update_exact_pack(kernel, None, [entry[0] for entry in entries], entries)


#: Fixed cost of one :meth:`FusedMatchKernel._hcman_core` call, in table
#: cells (one cell = one ``(column, segment)`` row of one entry): ~0.12 ms
#: per call against ~0.11 µs per cell on the ledger's fixture model
#: (``benchmarks/README.md`` has the measurement).  A bucket asked for fewer
#: cells than this is *sparse* — the call costs more than its arithmetic —
#: and shares one zero-padded call with its neighbours while each join pads
#: in fewer cells than the call it saves.  One constant serves both passes:
#: timed at x1/4, x1 and x4 on the ledger fixture and a nine-shape corpus,
#: the exact scan and the float32, pool-2 coarse scan read within noise of
#: their best at this value (x4 calls two of the ledger's coarse buckets
#: sparse and pads them into one call, +60 % on the coarse scan).
CALL_OVERHEAD_CELLS = 1024

#: Most table cells one kernel call scores; a dense bucket asked for more is
#: cut into consecutive calls.  It bounds scratch, not work: a call's largest
#: temporary is the segment similarity, ``M · N1`` values per cell — 4.5 MiB
#: for a three-line chart of the ledger's fixture model in float64, within
#: 8 MiB up to ``M · N1 = 16``.  Both passes read within noise of their best
#: from x1/4 to x4 of it (no ledger bucket is cut at any of them).
CALL_MAX_CELLS = 1 << 16


def _call_groups(pack: ExactPack, counts: np.ndarray) -> List[List[int]]:
    """The requested buckets (``counts[b] > 0``), grouped into kernel calls.

    Walks the buckets in pack (sorted-shape) order.  A sparse bucket joins
    the group before it when that group holds sparse buckets only, the joint
    batch stays within :data:`CALL_MAX_CELLS` and padding it to the joint
    shape adds fewer than :data:`CALL_OVERHEAD_CELLS` cells; any other
    bucket starts a group.  A pure function of the bucket shapes and
    ``counts``.
    """
    groups: List[List[int]] = []
    rows = nc = n2 = 0  # the last group's batch while it may grow, else zeros
    for number in np.flatnonzero(counts).tolist():
        count = int(counts[number])
        b_nc, b_n2 = pack.buckets[number].shape
        cells = count * b_nc * b_n2
        sparse = cells < CALL_OVERHEAD_CELLS
        j_rows, j_nc, j_n2 = rows + count, max(nc, b_nc), max(n2, b_n2)
        joint = j_rows * j_nc * j_n2
        padding = joint - rows * nc * n2 - cells
        if rows and sparse and joint <= CALL_MAX_CELLS and padding < CALL_OVERHEAD_CELLS:
            groups[-1].append(number)
            rows, nc, n2 = j_rows, j_nc, j_n2
        else:
            groups.append([number])
            rows, nc, n2 = (count, b_nc, b_n2) if sparse else (0, 0, 0)
    return groups


def _padded_group(
    parts: Sequence[Tuple[ExactBucket, np.ndarray]]
) -> Tuple[ExactBucket, np.ndarray]:
    """``(bucket, rows)`` parts zero-padded into one bucket, plus the
    ``(NC, N2, T)`` mask of its real cells.  A padded column gets the empty
    value range ``(+inf, -inf)``, which overlaps no query."""
    total = sum(len(rows) for _, rows in parts)
    nc = max(bucket.shape[0] for bucket, _ in parts)
    n2 = max(bucket.shape[1] for bucket, _ in parts)
    like = parts[0][0].values
    dim = like.shape[2]
    keys = np.zeros((nc, n2, dim, total), dtype=like.dtype)
    values = np.zeros_like(keys)
    lows = np.full((nc, total), np.inf)
    highs = np.full((nc, total), -np.inf)
    real = np.zeros((nc, n2, total), dtype=bool)
    stop = 0
    for bucket, rows in parts:
        start, stop = stop, stop + len(rows)
        b_nc, b_n2 = bucket.shape
        keys[:b_nc, :b_n2, :, start:stop] = bucket.keys.reshape(
            b_nc, b_n2, dim, -1
        )[..., rows]
        values[:b_nc, :b_n2, :, start:stop] = bucket.values[..., rows]
        lows[:b_nc, start:stop] = bucket.lows[:, rows]
        highs[:b_nc, start:stop] = bucket.highs[:, rows]
        real[:b_nc, :b_n2, start:stop] = True
    return ExactBucket(keys.reshape(nc * n2, dim, total), values, lows, highs), real


def _kernel_calls(pack: ExactPack, counts: np.ndarray) -> List[Tuple[int, int, List[int]]]:
    """``(begin, end, buckets)`` per kernel call: the span of the
    bucket-sorted rows it scores and the bucket it reads them from — or the
    group of sparse buckets, to pad together (:func:`_call_arrays`)."""
    calls: List[Tuple[int, int, List[int]]] = []
    stop = 0
    for group in _call_groups(pack, counts):
        first, stop = stop, stop + int(counts[group].sum())
        step = stop - first
        if len(group) == 1:
            nc, n2 = pack.buckets[group[0]].shape
            step = max(CALL_MAX_CELLS // (nc * n2), 1)
        calls.extend((begin, min(begin + step, stop), group) for begin in range(first, stop, step))
    return calls


def _call_arrays(
    pack: ExactPack, counts: np.ndarray, rows: np.ndarray, begin: int, end: int, group: List[int]
) -> Tuple[ExactBucket, Optional[np.ndarray]]:
    """The arrays one kernel call reads, and the real-cell mask of a padded
    group (``None`` for an unpadded batch of one bucket)."""
    if len(group) == 1:
        sel = _row_selector(rows[begin:end])
        return ExactBucket(*(_select_rows(a, sel) for a in pack.buckets[group[0]])), None
    parts, stop = [], begin
    for number in group:
        start, stop = stop, stop + int(counts[number])
        parts.append((pack.buckets[number], rows[start:stop]))
    return _padded_group(parts)


def _with_scan_plan(pack: ExactPack) -> ExactPack:
    """``pack`` with the ``calls`` and ``signature`` of a scan of every entry:
    per position, what besides its own row, the chart and the weights the
    last bits of its score depend on — its offset in the kernel call that
    scores it, that call's size and (padded) ``(NC, N2)``.  The scorer's, for
    the index-wide pack: a transient pack is scanned once and needs none."""
    calls = _kernel_calls(pack, pack.counts)
    shapes = np.asarray([bucket.shape for bucket in pack.buckets]).reshape(-1, 2)
    plan = [(begin, end - begin, *shapes[group].max(axis=0)) for begin, end, group in calls]
    plan = np.asarray(plan, dtype=np.int64).reshape(-1, 4)
    places = np.repeat(plan, plan[:, 1], axis=0)
    places[:, 0] = np.arange(len(places)) - places[:, 0]  # where its call begins -> offset
    signature = np.empty_like(places)
    signature[pack.order] = places
    return pack._replace(calls=tuple(calls), signature=signature)


def exact_pack_scores(
    kernel: FusedMatchKernel,
    pack: ExactPack,
    chart_repr: np.ndarray,
    positions: Optional[np.ndarray],
    y_range: Tuple[float, float],
    filter_tolerance: float,
    carried: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    exact: bool = True,
) -> np.ndarray:
    """Exact scores of the pack entries at ``positions``, one per position;
    ``None`` means every entry, in pack order, on the plan the pack carries.

    The y-tick column filter of :meth:`FCMScorer._select_columns` runs as
    one comparison per batch and *masks* the filtered columns instead of
    compacting them (a table none of whose columns overlaps the query keeps
    them all); masked columns drop out of every max/softmax/mean exactly as
    padded ones do.  One :meth:`FusedMatchKernel._hcman_core` call scores a
    bucket's entries unpadded, straight from the pack (at most
    :data:`CALL_MAX_CELLS` table cells of them), or sparse buckets
    zero-padded together (:func:`_call_groups`) so a candidate set of many
    shapes does not pay one call per shape.  Each bucket's entries are taken
    in pack order, so the batches depend on which entries are asked for, not
    on the order they are asked in.

    ``carried`` is internal to :meth:`FCMScorer._carried_scores`: ``(scores,
    rerun)`` of an earlier answer to the same full scan — the float64 scores
    to start from (written into and returned) and, per kernel call of the
    plan, whether to run it; a call not run keeps the scores it is handed.
    ``exact`` is passed on to :meth:`FusedMatchKernel._hcman_core`: ``False``
    for the coarse pack (:meth:`FCMScorer.prefilter_ids`).
    """
    low, high = float(y_range[0]), float(y_range[1])
    pad = filter_tolerance * max(abs(low), abs(high), 1.0)
    if positions is None:
        order, counts, rows = pack.order, pack.counts, pack.rows
    else:
        buckets = pack.bucket_of[positions]
        order = np.lexsort((positions, buckets))
        counts = np.bincount(buckets, minlength=len(pack.buckets))
        rows = pack.row_of[positions][order]
    out, rerun = carried or (np.empty(len(order), dtype=np.float64), repeat(True))
    calls = pack.calls if positions is None and pack.calls else _kernel_calls(pack, counts)
    chart = kernel.chart_side(chart_repr)
    for run, call in zip(rerun, calls):
        if not run:
            continue
        begin, end = call[:2]
        bucket, real = _call_arrays(pack, counts, rows, *call)
        keep = (bucket.highs >= low - pad) & (bucket.lows <= high + pad)
        keep |= ~keep.any(axis=0)
        if real is None:
            segment_mask = np.broadcast_to(
                keep[:, None, :], bucket.shape + (bucket.rows,)
            )
        else:
            segment_mask = real & keep[:, None, :]
            keep = segment_mask.any(axis=1)
        out[order[begin:end]] = kernel._hcman_core(
            chart, bucket.keys, bucket.values, segment_mask, keep, exact
        )
    return out
