"""Inference-only fused kernels and the int8 quantized pre-filter.

Speed layers for query-time scoring with the HCMAN matcher; scores agree
with the graphed batched matcher path to <= 1e-8 in float64:

* **Fused kernel** (:class:`FusedMatchKernel`) — the hot chain of
  :meth:`SegmentLevelAttention.forward_batch` →
  :meth:`LineColumnAttention.forward_batch` →
  :meth:`InteractionHead.forward_batch` re-expressed as plain
  ``np.matmul(..., out=)`` calls over a per-scorer scratch-buffer pool
  (:class:`ScratchPool`).  No :class:`~repro.nn.Tensor` objects, no autograd
  graph, and the large per-op temporaries (similarity matrices, weighted
  products) are written into preallocated arenas instead of fresh
  allocations.  Every operation reproduces the exact NumPy expression the
  Tensor op would have run — including the float64 accumulation in
  ``sum``/``softmax`` denominators and the scalar-lifting dtype rules — so
  on an identical batch the scores are bit-identical to the graphed path in
  float64 and agree to normal rounding noise in float32.  The table-side
  key/value projections are query-independent, so serving never computes
  them inside the kernel: :meth:`FusedMatchKernel._hcman_core` takes them
  prebuilt, from one of the two packs below.

* **Quantized pre-filter** (:func:`quantize_table`,
  :func:`build_quantized_pack`, :func:`coarse_scores`,
  :func:`quantized_scores`) — an int8 symmetric-quantized copy of the cached
  table encodings with one scale factor per table (``x ≈ codes · scale``,
  ``scale = max|x| / 127``).  At pack-build time each table is dequantized,
  groups of :data:`PREFILTER_POOL` consecutive segment rows are mean-pooled,
  and the pooled vectors are re-quantized into one padded int8 batch.  The
  pre-filter then scores every candidate with the **real matcher** on that
  ``pool``-times-smaller input — the fused kernel over a prebuilt
  :class:`CoarseCache` of projections, or the graphed path through
  :func:`quantized_scores` for matchers the kernel does not support — and
  keeps only the ``top-(k · overscan)`` candidates for exact float
  re-scoring.  Because the coarse score passes through the same attention
  and MLP nonlinearities as the exact one, its ranking tracks the exact
  ranking closely — a raw dot-product proxy does not (the matcher's output
  is not monotone in representation similarity).  The coarse score never
  replaces the exact one: the final ranking is always produced by the full
  matcher on the kept set, so parity is a recall property (pinned by tests
  on the trained fixture) rather than a numerical one.

* **Exact pack** (:class:`ExactPack`, :func:`update_exact_pack`,
  :func:`exact_pack_scores`) — the one exact-verification forward: the
  HCMAN key/value projections of a set of entries, grouped into buckets of
  identical ``(NC, N2)`` shape, scored on unpadded same-shape batches with
  the y-tick column filter as one vectorised comparison per batch; buckets
  too sparse to be worth a kernel call each share a zero-padded one
  (:data:`CALL_OVERHEAD_CELLS`).  The scorer keeps an index-wide pack for
  scans of more than one batch — maintained across writes by
  re-projecting only the entries that changed, and at every moment equal,
  array for array, to a from-scratch build — and projects smaller candidate
  sets into a transient pack per call.  The projections and every
  attention stage are
  computed per entry, so an entry's score does not depend on which pack
  served it or which other entries were scored with it — up to the last
  bit: the interaction head is one 2-D GEMM per batch whose rows BLAS
  blocks by batch size, and a padded batch sums a few exact zeros more.

The module deliberately has no dependency on the scorer or serving layers;
it consumes raw ``np.ndarray`` encodings plus live parameter references from
the matcher modules.  The kernel reads weights at call time; the two caches
of table-side projections (:class:`CoarseCache`, :class:`ExactPack`) freeze
``key_proj``/``value_proj`` and therefore carry a copy of those parameters —
owners compare it with :meth:`FusedMatchKernel.projections_current` before
each use and rebuild after a training step or ``load_state_dict``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .matcher import HCMANMatcher

__all__ = [
    "ScratchPool",
    "FusedMatchKernel",
    "QuantizedTable",
    "QuantizedPack",
    "PREFILTER_DTYPE",
    "PREFILTER_POOL",
    "quantize_table",
    "pooled_vectors",
    "build_quantized_pack",
    "quantized_scores",
    "CoarseCache",
    "build_coarse_cache",
    "coarse_scores",
    "ExactBucket",
    "ExactPack",
    "build_exact_pack",
    "update_exact_pack",
    "exact_pack_scores",
    "CALL_OVERHEAD_CELLS",
]


class ScratchPool:
    """Per-scorer pool of reusable scratch arenas.

    One flat arena per ``(tag, dtype)``; :meth:`take` returns a contiguous
    view of the requested shape, growing the arena when the batch shape
    outgrows it.  Chunked scoring over a stable repository therefore
    allocates only on the first pass (and whenever a new largest shape
    appears); every later chunk is served from the arena.  ``hits`` /
    ``misses`` feed the observability counters.
    """

    __slots__ = ("_arenas", "hits", "misses")

    def __init__(self) -> None:
        self._arenas: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A writable scratch array of ``shape``/``dtype`` (contents arbitrary)."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arena = self._arenas.get((tag, dtype))
        if arena is None or arena.size < size:
            arena = np.empty(max(size, 1), dtype=dtype)
            self._arenas[(tag, dtype)] = arena
            self.misses += 1
        else:
            self.hits += 1
        return arena[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(arena.nbytes for arena in self._arenas.values())

    def clear(self) -> None:
        self._arenas.clear()


def _linear(
    pool: ScratchPool, tag: str, x: np.ndarray, weight, bias, exact: bool = True
) -> np.ndarray:
    """``x @ W + b`` into a pooled buffer — the exact :class:`Linear` forward.

    When ``x`` is narrower than the stored weights (the pre-filter's float32
    coarse pass under a float64 session) the tiny weight/bias matrices are
    cast down so the GEMM runs at the input precision instead of silently
    promoting to a float64 contraction.

    ``exact=True`` calls ``np.matmul`` on the operand shapes the Tensor op
    would see (bitwise parity with the graphed path).  ``exact=False``
    flattens the batch axes into one 2-D GEMM first: the coarse pass feeds
    this helper ``(B, few, K)`` stacks whose stacked matmul dispatches B
    tiny per-slice GEMMs.
    """
    w = weight.data
    if w.dtype != x.dtype:
        w = w.astype(x.dtype)
    out = pool.take(tag, x.shape[:-1] + (w.shape[1],), x.dtype)
    if exact or x.ndim <= 2:
        np.matmul(x, w, out=out)
    else:
        np.matmul(
            x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[1])
        )
    if bias is not None:
        b = bias.data
        out += b.astype(x.dtype) if b.dtype != x.dtype else b
    return out


def _softmax(
    pool: ScratchPool, tag: str, x: np.ndarray, exact: bool = True
) -> np.ndarray:
    """Replicates ``Tensor.softmax(axis=-1)`` including the float64 denominator.

    ``exact=False`` (the pre-filter's coarse pass) accumulates the
    denominator in the input dtype instead — mixed-precision reductions
    fall off NumPy's vectorized path and dominate the float32 profile.
    """
    shifted = pool.take(tag + ".shift", x.shape, x.dtype)
    np.subtract(x, x.max(axis=-1, keepdims=True), out=shifted)
    np.exp(shifted, out=shifted)
    acc = np.float64 if exact else x.dtype
    denom = shifted.sum(axis=-1, keepdims=True, dtype=acc)
    return (shifted / denom).astype(x.dtype, copy=False)


def _sum_cast(x: np.ndarray, axis, exact: bool = True) -> np.ndarray:
    """Replicates ``Tensor.sum``: accumulate in float64, cast back.

    ``exact=False`` accumulates natively (see :func:`_softmax`).
    """
    if not exact:
        return x.sum(axis=axis)
    out = x.sum(axis=axis, dtype=np.float64)
    return np.asarray(out).astype(x.dtype, copy=False)


def _mean_cast(x: np.ndarray, axis, exact: bool = True) -> np.ndarray:
    """Replicates ``Tensor.mean``: float64-accumulated sum times ``1/count``."""
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = int(np.prod([x.shape[a] for a in axes]))
    inv = np.asarray(1.0 / count, dtype=x.dtype)
    return _sum_cast(x, axis, exact) * inv


def _masked_fill_(x: np.ndarray, keep: np.ndarray, fill: float) -> np.ndarray:
    """In-place ``masked_keep``: positions where ``keep`` is False get ``fill``."""
    np.copyto(x, np.asarray(fill, dtype=x.dtype), where=~keep)
    return x


def _masked_mean(
    values: np.ndarray, mask: np.ndarray, exact: bool = True
) -> np.ndarray:
    """Replicates :func:`repro.fcm.matcher._masked_mean` on raw arrays."""
    axes = tuple(range(1, values.ndim))
    counts = np.asarray(mask, dtype=bool).sum(axis=axes).astype(values.dtype)
    kept = np.where(mask, values, np.asarray(0.0, dtype=values.dtype))
    total = _sum_cast(kept, axes, exact)
    return (total * (1.0 / np.maximum(counts, 1.0))).reshape(-1, 1)


class FusedMatchKernel:
    """Fused, graph-free replacement for ``HCMANMatcher.forward_batch``.

    Supports :class:`HCMANMatcher` with the shipped two-layer ReLU head; any
    other matcher (the :class:`~repro.fcm.matcher.AveragedMatcher` ablation
    included) reports ``supported == False`` and callers take the Tensor
    path.  The kernel holds only a :class:`ScratchPool` and a reference to
    the matcher — parameters are read live on every call.
    """

    def __init__(self, matcher) -> None:
        self._matcher = matcher
        self.pool = ScratchPool()

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

    def score_batch(
        self,
        chart_repr: np.ndarray,
        table_batch: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """``(B,)`` relevance scores; equals ``matcher.forward_batch(...)``.

        Projects one zero-padded candidate stack and runs :meth:`_hcman_core`
        on it.  Serving never calls this — it scores from prebuilt
        projections (:func:`exact_pack_scores`, :func:`coarse_scores`); the
        tests use it as the project-per-call oracle for both.

        ``chart_repr`` is the raw ``(M, N1, K)`` chart encoding array and
        ``table_batch`` the ``(B, NC, N2, K)`` candidate stack in the same
        dtype; masks follow :func:`repro.fcm.scorer.pad_candidate_batch`.
        ``exact`` is passed through to :meth:`_hcman_core`.
        """
        seg = self._matcher.segment_level
        b, nc, n2, dim = table_batch.shape
        table_flat = table_batch.reshape(b, nc * n2, dim)
        keys = _linear(self.pool, "sl.k", table_flat, seg.key_proj.weight, seg.key_proj.bias, exact)
        table_values = _linear(self.pool, "sl.tv", table_batch, seg.value_proj.weight, seg.value_proj.bias, exact)
        return self._hcman_core(
            chart_repr, keys, table_values, segment_mask, column_mask, exact
        )

    def _hcman_core(
        self,
        chart_repr: np.ndarray,
        keys: np.ndarray,
        table_values: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """HCMAN chain after the table-side projections.

        ``keys``/``table_values`` are the key/value projections of the
        candidate batch, served from a prebuilt :class:`CoarseCache` /
        :class:`ExactPack` (they only depend on the candidates and the
        matcher weights, not the query).  Both are read-only here so cached
        projections survive the call.

        ``exact=True`` (exact verification) replays the Tensor graph's
        float64-accumulated reductions: on an identical batch, float64
        scores are bitwise those of the graphed path.  ``exact=False`` (the
        coarse pre-filter pass) accumulates in the input dtype — the scores
        only feed the overscan cut, and mixed-precision reductions are the
        dominant cost of a float32 batch.
        """
        pool = self.pool
        matcher = self._matcher
        seg = matcher.segment_level
        dtype = table_values.dtype

        m, n1, dim = chart_repr.shape
        b, nc, n2, _ = table_values.shape
        chart_flat = chart_repr.reshape(m * n1, dim)
        seg_valid = np.asarray(segment_mask, dtype=bool)
        flat_valid = seg_valid.reshape(b, 1, nc * n2)
        scale = np.asarray(1.0 / np.sqrt(dim), dtype=dtype)

        # --- SL-SAN ---------------------------------------------------- #
        queries = _linear(pool, "sl.q", chart_flat, seg.query_proj.weight, seg.query_proj.bias, exact)
        sim = pool.take("sl.sim", (b, m * n1, nc * n2), dtype)
        np.matmul(queries, keys.swapaxes(-1, -2), out=sim)
        sim *= scale
        _masked_fill_(sim, flat_valid, -np.inf)

        chart_scores = sim.reshape(b, m, n1, nc * n2).max(axis=-1)  # (B, M, N1)
        # max over the chart axis equals the transposed-reshape max of the
        # graphed path without materialising the (B, NC, N2, M*N1) copy.
        table_scores = sim.max(axis=1).reshape(b, nc, n2)  # (B, NC, N2)

        chart_weights = _softmax(pool, "sl.cw", chart_scores, exact)[..., None]
        column_alive = seg_valid.any(axis=-1)[..., None]  # (B, NC, 1)
        masked_ts = pool.take("sl.mts", table_scores.shape, dtype)
        np.copyto(masked_ts, table_scores)
        _masked_fill_(masked_ts, column_alive, 0.0)
        table_weights = _softmax(pool, "sl.tw", masked_ts, exact)[..., None]

        chart_values = _linear(pool, "sl.cv", chart_repr, seg.value_proj.weight, seg.value_proj.bias, exact)
        if exact:
            weighted = pool.take("sl.wgt", (b, m, n1, dim), dtype)
            np.multiply(chart_values, chart_weights, out=weighted)
            lines = _sum_cast(weighted, 2, exact)  # (B, M, K)
            weighted_tv = pool.take("sl.tvw", table_values.shape, dtype)
            np.multiply(table_values, table_weights, out=weighted_tv)
            columns = _sum_cast(weighted_tv, 2, exact)  # (B, NC, K)
        else:
            # One fused contraction instead of a broadcast multiply plus a
            # reduction over a (B, ·, ·, K) scratch — the multiply+sum pair
            # is the single most expensive op group of the coarse pass.
            lines = np.einsum(
                "mnk,bmn->bmk", chart_values, chart_weights[..., 0]
            )
            columns = np.einsum(
                "bcsk,bcs->bck", table_values, table_weights[..., 0]
            )
        segment_evidence = np.concatenate(
            [
                _mean_cast(chart_scores, (1, 2), exact).reshape(-1, 1),
                _masked_mean(table_scores, seg_valid, exact),
            ],
            axis=-1,
        )

        # --- LL-SAN ---------------------------------------------------- #
        line = matcher.line_level
        col_valid = np.asarray(column_mask, dtype=bool)
        lq = _linear(pool, "ll.q", lines, line.query_proj.weight, line.query_proj.bias, exact)
        lk = _linear(pool, "ll.k", columns, line.key_proj.weight, line.key_proj.bias, exact)
        sim2 = pool.take("ll.sim", (b, m, nc), dtype)
        np.matmul(lq, lk.swapaxes(-1, -2), out=sim2)
        sim2 *= scale
        _masked_fill_(sim2, col_valid[:, None, :], -np.inf)

        line_scores = sim2.max(axis=-1)  # (B, M)
        column_scores = sim2.max(axis=1)  # (B, NC); == swapaxes(-1,-2).max(-1)

        line_weights = _softmax(pool, "ll.lw", line_scores, exact)[..., None]
        column_weights = _softmax(pool, "ll.cw", column_scores, exact)[..., None]

        line_values = _linear(pool, "ll.lv", lines, line.value_proj.weight, line.value_proj.bias, exact)
        np.multiply(line_values, line_weights, out=line_values)
        chart_vecs = _sum_cast(line_values, 1, exact)  # (B, K)
        column_values = _linear(pool, "ll.cv", columns, line.value_proj.weight, line.value_proj.bias, exact)
        np.multiply(column_values, column_weights, out=column_values)
        table_vecs = _sum_cast(column_values, 1, exact)  # (B, K)
        line_evidence = np.concatenate(
            [
                _mean_cast(line_scores, (-1,), exact).reshape(-1, 1),
                _masked_mean(column_scores, col_valid, exact),
            ],
            axis=-1,
        )

        evidence = np.concatenate([segment_evidence, line_evidence], axis=-1)
        return self._head(chart_vecs, table_vecs, evidence, exact)

    # ------------------------------------------------------------------ #
    # Interaction head
    # ------------------------------------------------------------------ #
    def _head(
        self,
        chart_vecs: np.ndarray,
        table_vecs: np.ndarray,
        extra: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        pool = self.pool
        head = self._matcher.head
        dtype = chart_vecs.dtype
        eps = np.asarray(1e-8, dtype=dtype)

        product = chart_vecs * table_vecs
        difference = np.abs(chart_vecs - table_vecs)
        chart_norm = (
            _sum_cast(chart_vecs * chart_vecs, -1, exact)[..., None] + eps
        ) ** 0.5
        table_norm = (
            _sum_cast(table_vecs * table_vecs, -1, exact)[..., None] + eps
        ) ** 0.5
        cosine = _sum_cast(product, -1, exact)[..., None] / (
            chart_norm * table_norm
        )
        joint = np.concatenate(
            [
                chart_vecs,
                table_vecs,
                product,
                difference,
                cosine,
                extra.reshape(-1, head.num_extra_features),
            ],
            axis=-1,
        )

        fc0, fc1 = head.mlp.layers
        hidden = _linear(pool, "head.h", joint, fc0.weight, fc0.bias, exact)
        hidden *= hidden > 0  # relu, exactly as Tensor.relu computes it
        logits = _linear(pool, "head.o", hidden, fc1.weight, fc1.bias, exact)
        scores = 1.0 / (1.0 + np.exp(-logits))
        return np.squeeze(scores, axis=-1)


# ---------------------------------------------------------------------- #
# int8 symmetric quantization + packed pre-filter
# ---------------------------------------------------------------------- #
class QuantizedTable(NamedTuple):
    """int8 copy of one table's encodings: ``representations ≈ codes · scale``."""

    codes: np.ndarray  # (NC, N2, K) int8 — mirrors the representation shape
    scale: float  # dequantization multiplier; 0.0 for all-zero tables


class QuantizedPack(NamedTuple):
    """Every candidate's *pooled* quantized encoding, padded into one batch.

    The pack is the pre-filter's scoring input: per table, the int8 codes
    are dequantized, groups of :attr:`pool` consecutive segment rows are
    mean-pooled, and the pooled vectors are re-quantized to int8 (one scale
    per table).  Scoring a candidate chunk is then a single matcher call on
    a ``pool``-times-smaller batch — the pre-filter runs the *real* matcher
    (fused or graphed) on a coarse input, so its ranking tracks the exact
    score through every attention and MLP nonlinearity instead of relying
    on a raw-similarity proxy.
    """

    table_ids: Tuple[str, ...]
    codes: np.ndarray  # (T, NC_max, NS_max, K) int8 — pooled segment rows
    segment_mask: np.ndarray  # (T, NC_max, NS_max) bool
    column_mask: np.ndarray  # (T, NC_max) bool
    scales: np.ndarray  # (T,) float64
    pool: int  # segment rows mean-pooled per coarse row
    index: Dict[str, int]  # table_id -> position in the arrays above


def quantize_table(representations: np.ndarray) -> QuantizedTable:
    """Symmetric per-table int8 quantization of an ``(NC, N2, K)`` encoding.

    ``scale = max|x| / 127`` so the full dynamic range maps onto
    ``[-127, 127]``; all-zero (or non-finite-free constant-zero) tables get
    ``scale = 0.0`` and all-zero codes — the guard every consumer relies on
    instead of dividing by zero.
    """
    reps = np.asarray(representations)
    amax = float(np.max(np.abs(reps))) if reps.size else 0.0
    if not np.isfinite(amax) or amax == 0.0:
        return QuantizedTable(
            codes=np.zeros(reps.shape, dtype=np.int8), scale=0.0
        )
    scale = amax / 127.0
    codes = np.clip(np.rint(reps / scale), -127, 127).astype(np.int8)
    return QuantizedTable(codes=codes, scale=scale)


#: Precision of the coarse pre-filter pass.  The coarse score only feeds
#: the overscan cut (survivors are re-scored exactly), so it always runs
#: in float32 — under a float64 session the narrower GEMMs roughly halve
#: the coarse pass without touching the recall floor.
PREFILTER_DTYPE = np.float32

#: Default segment rows mean-pooled per coarse row of the pre-filter pack.
#: The coarse score is the real matcher on pooled input, so larger pools
#: trade score fidelity for speed: on undertrained models with near-flat
#: score landscapes a pool of 4 can push true top-k tables outside the
#: default overscan cut, while 2 keeps them at roughly half the FLOPs.
PREFILTER_POOL = 2

#: Candidate tables dequantized + matcher-scored per pre-filter chunk;
#: bounds the float copy of the pooled batch to a few tens of MB.
PREFILTER_CHUNK_TABLES = 2048


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


def pooled_vectors(
    quantized: QuantizedTable, pool: int = PREFILTER_POOL
) -> np.ndarray:
    """The pooled float vectors one table contributes to a pack.

    Public wrapper around the per-table pooling step of
    :func:`build_quantized_pack`, so callers that maintain an incremental
    pack (the scorer's dirty-segment refresh: only entries whose content
    changed are re-pooled) compute exactly the vectors a from-scratch pack
    build would.
    """
    return _pooled_dequant(quantized, pool)


def build_quantized_pack(
    items: Sequence[Tuple[str, QuantizedTable]],
    pool: int = PREFILTER_POOL,
    pooled: Optional[Sequence[np.ndarray]] = None,
) -> QuantizedPack:
    """Pool + re-quantize every table and pad into one scoring batch.

    ``pooled`` optionally supplies the per-table pooled vectors (one array
    per item, as produced by :func:`pooled_vectors` with the same ``pool``)
    so an incremental caller only pays the pooling cost for entries whose
    content actually changed; ``None`` pools everything here.
    """
    table_ids = tuple(table_id for table_id, _ in items)
    index = {table_id: position for position, table_id in enumerate(table_ids)}
    if pooled is None:
        pooled = [_pooled_dequant(quantized, pool) for _, quantized in items]
    else:
        if len(pooled) != len(items):
            raise ValueError(
                f"pooled= carries {len(pooled)} arrays for {len(items)} items"
            )
        pooled = list(pooled)
    if not pooled:
        return QuantizedPack(
            table_ids=table_ids,
            codes=np.zeros((0, 1, 1, 1), dtype=np.int8),
            segment_mask=np.zeros((0, 1, 1), dtype=bool),
            column_mask=np.zeros((0, 1), dtype=bool),
            scales=np.zeros(0, dtype=np.float64),
            pool=int(pool),
            index=index,
        )
    nc_max = max(p.shape[0] for p in pooled)
    ns_max = max(p.shape[1] for p in pooled)
    dim = pooled[0].shape[2]
    codes = np.zeros((len(pooled), nc_max, ns_max, dim), dtype=np.int8)
    segment_mask = np.zeros((len(pooled), nc_max, ns_max), dtype=bool)
    column_mask = np.zeros((len(pooled), nc_max), dtype=bool)
    scales = np.zeros(len(pooled), dtype=np.float64)
    for position, vectors in enumerate(pooled):
        nc, ns, _ = vectors.shape
        amax = float(np.max(np.abs(vectors))) if vectors.size else 0.0
        if np.isfinite(amax) and amax > 0.0:
            scales[position] = amax / 127.0
            codes[position, :nc, :ns] = np.clip(
                np.rint(vectors / scales[position]), -127, 127
            ).astype(np.int8)
        segment_mask[position, :nc, :ns] = True
        column_mask[position, :nc] = True
    return QuantizedPack(
        table_ids=table_ids,
        codes=codes,
        segment_mask=segment_mask,
        column_mask=column_mask,
        scales=scales,
        pool=int(pool),
        index=index,
    )


def quantized_scores(
    pack: QuantizedPack,
    chart_repr: np.ndarray,
    table_ids: Sequence[str],
    score_fn,
    chunk_tables: int = PREFILTER_CHUNK_TABLES,
) -> np.ndarray:
    """Coarse pre-filter scores for ``table_ids``, one float per id.

    ``chart_repr`` is the raw ``(M, N1, K)`` chart encoding array and
    ``score_fn(chart_repr, table_batch, segment_mask, column_mask)`` the
    matcher entry point to run on each dequantized candidate chunk.  The
    only serving caller is :meth:`FCMScorer.prefilter_ids` for a matcher
    without a fused kernel, with the graphed ``match_batch`` as ``score_fn``
    (the kernel's coarse pass is :func:`coarse_scores`).  Unknown ids score
    ``-inf`` so they are dropped before exact re-scoring ever sees them.
    """
    chart = np.ascontiguousarray(chart_repr)
    out = np.full(len(table_ids), -np.inf, dtype=np.float64)
    positions = np.asarray(
        [pack.index.get(table_id, -1) for table_id in table_ids], dtype=np.int64
    )
    known = positions >= 0
    if not known.any() or chart.size == 0:
        return out
    known_positions = positions[known]
    scores = np.empty(len(known_positions), dtype=np.float64)
    step = max(int(chunk_tables), 1)
    for start in range(0, len(known_positions), step):
        chunk = known_positions[start : start + step]
        batch = pack.codes[chunk].astype(chart.dtype)
        batch *= pack.scales[chunk][:, None, None, None].astype(chart.dtype)
        scores[start : start + len(chunk)] = np.atleast_1d(
            score_fn(
                chart, batch, pack.segment_mask[chunk], pack.column_mask[chunk]
            )
        )
    out[known] = scores
    return out


class CoarseCache(NamedTuple):
    """Query-independent half of the coarse pass, prebuilt from the pack.

    The pre-filter pack is static between index mutations and the matcher
    weights are fixed during serving, so everything the coarse matcher call
    derives from the *table* side — the dequantized batch and its HCMAN
    key/value projections — can be computed once per pack instead of once
    per query.  Stored at
    :data:`PREFILTER_DTYPE`; roughly ``2 · NC · NS · K`` floats per table
    (~3 KB at the default config), all derived state that is rebuilt with
    the pack and never persisted.

    ``sorted_ids`` / ``sorted_positions`` are the vectorized id→row lookup
    (``np.searchsorted`` replaces a Python dict probe per candidate).
    ``weights`` is the copy of the projection parameters the cache was built
    under (see :meth:`FusedMatchKernel.projections_current`).
    """

    keys: np.ndarray  # (T, NC·NS, K) — HCMAN key projection
    table_values: np.ndarray  # (T, NC, NS, K) — HCMAN value projection
    sorted_ids: np.ndarray  # (T,) unicode — pack ids, lexicographic
    sorted_positions: np.ndarray  # (T,) int64 — pack row of sorted_ids[i]
    weights: Tuple[np.ndarray, ...]  # frozen projection parameters


def _project(x: np.ndarray, layer) -> np.ndarray:
    """``x @ W + b`` into a fresh array (cache build; no pooled scratch)."""
    w = layer.weight.data
    out = x @ (w.astype(x.dtype) if w.dtype != x.dtype else w)
    if layer.bias is not None:
        b = layer.bias.data
        out += b.astype(x.dtype) if b.dtype != x.dtype else b
    return out


def _row_selector(rows: np.ndarray):
    """``rows`` as a slice when they are consecutive, else unchanged.

    Consecutive rows are the exhaustive-verification common case: a plain
    slice makes every cache/mask access a view, not a fancy-index copy.
    """
    first = int(rows[0])
    if len(rows) == int(rows[-1]) - first + 1 and bool((np.diff(rows) == 1).all()):
        return slice(first, first + len(rows))
    return rows


def build_coarse_cache(kernel: FusedMatchKernel, pack: QuantizedPack) -> CoarseCache:
    """Dequantize + project the whole pack once, for :func:`coarse_scores`."""
    dtype = PREFILTER_DTYPE
    ids = np.asarray(pack.table_ids)
    order = np.argsort(ids) if ids.size else np.zeros(0, dtype=np.int64)
    sorted_ids = ids[order]
    batch = pack.codes.astype(dtype)
    batch *= pack.scales[:, None, None, None].astype(dtype)
    seg = kernel._matcher.segment_level
    t, nc, ns, dim = batch.shape
    weights = tuple(w.copy() for w in kernel.projection_weights())
    keys = _project(batch.reshape(t, nc * ns, dim), seg.key_proj)
    table_values = _project(batch, seg.value_proj)
    return CoarseCache(keys, table_values, sorted_ids, order, weights)


def coarse_scores(
    kernel: FusedMatchKernel,
    pack: QuantizedPack,
    cache: CoarseCache,
    chart_repr: np.ndarray,
    table_ids: Sequence[str],
    chunk_tables: int = PREFILTER_CHUNK_TABLES,
) -> np.ndarray:
    """Pre-filter scores via the cached projections (fused kernel only).

    The per-query work drops to the chart-side projections plus the
    attention/head chain — no dequantize, no table-side GEMMs.  Scores are
    identical to :func:`quantized_scores` with an ``exact=False`` fused
    ``score_fn`` at :data:`PREFILTER_DTYPE`; unknown ids score ``-inf``.
    """
    chart = np.ascontiguousarray(
        np.asarray(chart_repr).astype(PREFILTER_DTYPE, copy=False)
    )
    out = np.full(len(table_ids), -np.inf, dtype=np.float64)
    if not len(table_ids) or not cache.sorted_ids.size or chart.size == 0:
        return out
    query_ids = np.asarray(table_ids)
    if len(query_ids) == len(cache.sorted_ids) and np.array_equal(
        query_ids, cache.sorted_ids
    ):
        # Exhaustive verification asks for every indexed table in sorted
        # order — exactly ``sorted_ids``, so the lookup is precomputed.
        positions = cache.sorted_positions
    else:
        loc = np.searchsorted(cache.sorted_ids, query_ids)
        loc = np.minimum(loc, len(cache.sorted_ids) - 1)
        positions = np.where(
            cache.sorted_ids[loc] == query_ids, cache.sorted_positions[loc], -1
        )
    known = positions >= 0
    if not known.any():
        return out
    known_positions = positions[known]
    scores = np.empty(len(known_positions), dtype=np.float64)
    step = max(int(chunk_tables), 1)
    for start in range(0, len(known_positions), step):
        chunk = known_positions[start : start + step]
        sel = _row_selector(chunk)
        scores[start : start + len(chunk)] = kernel._hcman_core(
            chart,
            cache.keys[sel],
            cache.table_values[sel],
            pack.segment_mask[sel],
            pack.column_mask[sel],
            exact=False,
        )
    out[known] = scores
    return out


# ---------------------------------------------------------------------- #
# Exact pack: table-side float projections for exact verification
# ---------------------------------------------------------------------- #
class ExactBucket(NamedTuple):
    """The pack rows of every entry with one ``(NC, N2)`` shape."""

    keys: np.ndarray  # (T, NC·N2, K) — HCMAN key projection, model dtype
    values: np.ndarray  # (T, NC, N2, K) — HCMAN value projection
    lows: np.ndarray  # (T, NC) float64 — column value-range minima
    highs: np.ndarray  # (T, NC) float64 — column value-range maxima


class ExactPack(NamedTuple):
    """Query-independent half of exact HCMAN verification.

    Entries are numbered in sorted-id order and grouped into buckets of
    identical ``(NC, N2)`` shape (buckets in sorted shape order, rows in
    sorted-id order), so the layout — and with it every batch the kernel
    sees — is a pure function of the id set and the entry shapes, never of
    the order tables were added or removed in.  Costs ``2 · NC · N2 · K``
    floats per entry; derived state, never persisted.
    """

    index: Dict[str, int]  # entry id -> position in sorted-id order
    bucket_of: np.ndarray  # (T,) int64 — bucket holding each position
    row_of: np.ndarray  # (T,) int64 — row within that bucket
    buckets: Tuple[ExactBucket, ...]
    weights: Tuple[np.ndarray, ...]  # frozen projection parameters
    nbytes: int


#: One pack input row: ``(id, representations (NC, N2, K), column_ranges)``.
PackEntry = Tuple[str, np.ndarray, Sequence[Tuple[float, float]]]


def _project_bucket(kernel: FusedMatchKernel, entries: Sequence[PackEntry]) -> ExactBucket:
    """The bucket of same-shape ``entries``, one row each in the order given.

    The projections are computed on the operand shapes
    :meth:`FusedMatchKernel.score_batch` would see for a batch of that shape
    alone — one GEMM per entry (keys) and per column (values) — so a row is
    the same bits whichever entries are stacked with it, one included.
    """
    seg = kernel._matcher.segment_level
    nc, n2 = entries[0][1].shape[:2]
    batch = np.stack([entry[1] for entry in entries])
    ranges = np.asarray([entry[2] for entry in entries], dtype=np.float64).reshape(
        len(entries), nc, 2
    )
    return ExactBucket(
        keys=_project(batch.reshape(len(entries), nc * n2, -1), seg.key_proj),
        values=_project(batch, seg.value_proj),
        lows=np.ascontiguousarray(ranges[..., 0]),
        highs=np.ascontiguousarray(ranges[..., 1]),
    )


def _spliced(
    held: ExactBucket, rows: np.ndarray, new: np.ndarray, projected: Optional[ExactBucket]
) -> ExactBucket:
    """A bucket of ``len(new)`` rows at exact size: rows ``rows`` of ``held``
    where ``new`` is false and the rows of ``projected`` where it is true,
    each in order."""
    arrays = []
    for number, array in enumerate(held):
        out = np.empty((len(new),) + array.shape[1:], dtype=array.dtype)
        out[~new] = array[rows]
        if projected is not None:
            out[new] = projected[number]
        arrays.append(out)
    return ExactBucket(*arrays)


def update_exact_pack(
    kernel: FusedMatchKernel,
    pack: Optional[ExactPack],
    sorted_ids: Sequence[str],
    fresh: Sequence[PackEntry],
) -> ExactPack:
    """The pack over exactly ``sorted_ids``, derived from ``pack``.

    ``fresh`` holds the entries to project: every id ``pack`` does not hold
    plus every id whose content changed since its row was projected; any
    other id keeps the row it has, and a held id missing from ``sorted_ids``
    loses it.  Only buckets that gain or lose a row are re-allocated, at
    their exact new size; a bucket nobody touched keeps its arrays by
    reference and an emptied one disappears.  The layout stays the pure
    function of ids, shapes and contents :class:`ExactPack` documents, so
    the result equals, array for array, a from-scratch build over the same
    entries — which is this function with no ``pack``
    (:func:`build_exact_pack`).
    """
    fresh_by_id = {entry[0]: entry for entry in fresh}
    index = dict(zip(sorted_ids, range(len(sorted_ids))))
    held = pack.index if pack is not None else {}
    # Where each position's row comes from: a position of ``pack``, or -1 for
    # a row projected here (an id with neither is a ``KeyError`` below).
    source = np.fromiter(
        map(held.get, sorted_ids, repeat(-1)), dtype=np.int64, count=len(sorted_ids)
    )
    source[[index[table_id] for table_id in fresh_by_id]] = -1
    projected = source < 0
    shapes = np.empty((len(sorted_ids), 2), dtype=np.int64)
    shapes[projected] = np.asarray(
        [
            fresh_by_id[sorted_ids[position]][1].shape[:2]
            for position in np.flatnonzero(projected)
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    if not projected.all():
        held_shapes = np.asarray([b.values.shape[1:3] for b in pack.buckets])
        shapes[~projected] = held_shapes[pack.bucket_of[source[~projected]]]
    # Buckets in sorted-shape order, rows in sorted-id (= position) order.
    codes = shapes[:, 0] * (shapes[:, 1].max(initial=0) + 1) + shapes[:, 1]
    bucket_of = np.unique(codes, return_inverse=True)[1].astype(np.int64, copy=False)
    order = np.argsort(bucket_of, kind="stable")
    counts = np.bincount(bucket_of)
    starts = np.cumsum(counts) - counts
    row_of = np.empty(len(sorted_ids), dtype=np.int64)
    row_of[order] = np.arange(len(sorted_ids)) - np.repeat(starts, counts)
    buckets: List[ExactBucket] = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        members = order[start : start + count]
        new = projected[members]
        bucket = None
        if new.any():
            bucket = _project_bucket(
                kernel, [fresh_by_id[sorted_ids[position]] for position in members[new]]
            )
        if not new.all():
            kept = source[members[~new]]
            held_bucket = pack.buckets[pack.bucket_of[kept[0]]]
            if bucket is None and count == len(held_bucket.keys):
                bucket = held_bucket  # untouched: shared by reference
            else:
                bucket = _spliced(held_bucket, pack.row_of[kept], new, bucket)
        buckets.append(bucket)
    return ExactPack(
        index=index,
        bucket_of=bucket_of,
        row_of=row_of,
        buckets=tuple(buckets),
        weights=(
            pack.weights
            if pack is not None
            else tuple(w.copy() for w in kernel.projection_weights())
        ),
        nbytes=sum(array.nbytes for bucket in buckets for array in bucket),
    )


def build_exact_pack(kernel: FusedMatchKernel, entries: Sequence[PackEntry]) -> ExactPack:
    """Project every entry once: the pack over ``entries``, which must be in
    sorted-id order — :func:`update_exact_pack` from nothing."""
    return update_exact_pack(kernel, None, [entry[0] for entry in entries], entries)


#: Fixed cost of one :meth:`FusedMatchKernel._hcman_core` call, in table
#: cells (one cell = one ``(column, segment)`` row of one entry): ~0.14 ms
#: per call against ~0.3 µs per cell on the ledger's fixture model.  A
#: bucket asked for fewer cells than this is *sparse* — the call costs more
#: than its arithmetic — and shares one zero-padded call with its
#: neighbours while each join pads in fewer cells than the call it saves.
CALL_OVERHEAD_CELLS = 512


def _call_groups(pack: ExactPack, counts: np.ndarray, limit: int) -> List[List[int]]:
    """The requested buckets (``counts[b] > 0``), grouped into kernel calls.

    Walks the buckets in pack (sorted-shape) order.  A sparse bucket joins
    the group before it when that group holds sparse buckets only, the joint
    batch stays within ``limit`` rows and padding it to the joint shape adds
    fewer than :data:`CALL_OVERHEAD_CELLS` cells; any other bucket starts a
    group.  A pure function of the bucket shapes and ``counts``.
    """
    groups: List[List[int]] = []
    rows = nc = n2 = 0  # the last group's batch while it may grow, else zeros
    for number in np.flatnonzero(counts).tolist():
        count = int(counts[number])
        b_nc, b_n2 = pack.buckets[number].values.shape[1:3]
        cells = count * b_nc * b_n2
        sparse = cells < CALL_OVERHEAD_CELLS
        j_rows, j_nc, j_n2 = rows + count, max(nc, b_nc), max(n2, b_n2)
        padding = j_rows * j_nc * j_n2 - rows * nc * n2 - cells
        if rows and sparse and j_rows <= limit and padding < CALL_OVERHEAD_CELLS:
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
    ``(T, NC, N2)`` mask of its real cells.  A padded column gets the empty
    value range ``(+inf, -inf)``, which overlaps no query."""
    total = sum(len(rows) for _, rows in parts)
    nc = max(bucket.values.shape[1] for bucket, _ in parts)
    n2 = max(bucket.values.shape[2] for bucket, _ in parts)
    like = parts[0][0].values
    dim = like.shape[3]
    keys = np.zeros((total, nc, n2, dim), dtype=like.dtype)
    values = np.zeros_like(keys)
    lows = np.full((total, nc), np.inf)
    highs = np.full((total, nc), -np.inf)
    real = np.zeros((total, nc, n2), dtype=bool)
    stop = 0
    for bucket, rows in parts:
        start, stop = stop, stop + len(rows)
        b_nc, b_n2 = bucket.values.shape[1:3]
        keys[start:stop, :b_nc, :b_n2] = bucket.keys[rows].reshape(
            -1, b_nc, b_n2, dim
        )
        values[start:stop, :b_nc, :b_n2] = bucket.values[rows]
        lows[start:stop, :b_nc] = bucket.lows[rows]
        highs[start:stop, :b_nc] = bucket.highs[rows]
        real[start:stop, :b_nc, :b_n2] = True
    return ExactBucket(keys.reshape(total, nc * n2, dim), values, lows, highs), real


def _kernel_batches(
    pack: ExactPack, counts: np.ndarray, rows: np.ndarray, step: int
):
    """``(begin, end, bucket, real)`` per kernel call: the span of the
    bucket-sorted ``rows`` it scores, its arrays, and the real-cell mask of
    a padded group (``None`` for an unpadded batch of one bucket)."""
    stop = 0
    for group in _call_groups(pack, counts, step):
        first = stop
        parts = []
        for number in group:
            start, stop = stop, stop + int(counts[number])
            parts.append((pack.buckets[number], rows[start:stop]))
        if len(parts) > 1:
            yield (first, stop) + _padded_group(parts)
            continue
        bucket = parts[0][0]
        for begin in range(first, stop, step):
            end = min(begin + step, stop)
            sel = _row_selector(rows[begin:end])
            yield begin, end, ExactBucket(*(array[sel] for array in bucket)), None


def exact_pack_scores(
    kernel: FusedMatchKernel,
    pack: ExactPack,
    chart_repr: np.ndarray,
    positions: np.ndarray,
    y_range: Tuple[float, float],
    filter_tolerance: float,
    chunk_tables: int,
) -> np.ndarray:
    """Exact scores of the pack entries at ``positions``, one per position.

    The y-tick column filter of :meth:`FCMScorer._select_columns` runs as
    one comparison per batch and *masks* the filtered columns instead of
    compacting them (a table none of whose columns overlaps the query keeps
    them all); masked columns drop out of every max/softmax/mean exactly as
    padded ones do.  At most ``chunk_tables`` entries go through one
    :meth:`FusedMatchKernel._hcman_core` call: a bucket's entries unpadded,
    straight from the pack, and sparse buckets zero-padded together
    (:func:`_call_groups`) so a candidate set of many shapes does not pay
    one call per shape.  Each bucket's entries are taken in pack order, so
    the batches depend on which entries are asked for, not on the order they
    are asked in.
    """
    out = np.empty(len(positions), dtype=np.float64)
    low, high = float(y_range[0]), float(y_range[1])
    pad = filter_tolerance * max(abs(low), abs(high), 1.0)
    buckets = pack.bucket_of[positions]
    order = np.lexsort((positions, buckets))
    counts = np.bincount(buckets, minlength=len(pack.buckets))
    rows = pack.row_of[positions][order]
    step = max(int(chunk_tables), 1)
    for begin, end, bucket, real in _kernel_batches(pack, counts, rows, step):
        keep = (bucket.highs >= low - pad) & (bucket.lows <= high + pad)
        keep |= ~keep.any(axis=1, keepdims=True)
        if real is None:
            segment_mask = np.broadcast_to(keep[:, :, None], bucket.values.shape[:3])
        else:
            segment_mask = real & keep[:, :, None]
            keep = segment_mask.any(axis=2)
        out[order[begin:end]] = kernel._hcman_core(
            chart_repr, bucket.keys, bucket.values, segment_mask, keep
        )
    return out
