"""Query-time scoring: rank a repository of tables for a line chart query.

The scorer wraps the trained FCM model with the pieces a deployment needs:

* the visual element extractor turning a query chart into lines + y range;
* a cache of dataset-encoder outputs so each table is encoded once and only
  the (cheap) cross-modal matcher runs per (query, table) pair;
* the y-tick column filter of Sec. IV-C, applied by *selecting* the cached
  column representations whose value range overlaps the query's y range.

Inference contract
------------------
All scoring entry points run under :meth:`repro.nn.Module.inference` — the
model is switched to eval mode and no autodiff graph is built (see the
inference-mode notes in :mod:`repro.nn.tensor`).  This is safe because query
scores are never differentiated; training goes through
:class:`~repro.fcm.training.FCMTrainer`, which calls the model directly.

Two scoring paths produce the same scores (<= 1e-8 in float64; the pack
forward and the graphed forward of the batched path agree with each other to
<= 1e-12):

* :meth:`FCMScorer.score_pair` / :meth:`FCMScorer.score_chart` — the per-pair
  reference path, one matcher forward per candidate table;
* :meth:`FCMScorer.score_chart_batch` — the batched path.  The HCMAN
  matcher scores every candidate set through the *exact pack*
  (:func:`repro.fcm.fastpath.exact_pack_scores`): table-side key/value
  projections grouped into same-shape batches (sparse shapes zero-padded
  together), with the column filter as a mask.  Any other matcher (the
  averaged ablation), or ``fused=False``, takes the graphed forward: the cached
  (column-filtered) representations are zero-padded along a new candidate
  axis and one :meth:`FCMModel.match_pairs` call — the trainer's forward,
  the chart handed in once with a leading axis of 1 — scores a whole chunk.
  Masked and padded cells are excluded from every max/softmax/mean inside
  the matcher, so both match the per-pair path to floating-point accuracy.

:meth:`FCMScorer.rank` and the index layer use the batched path; the per-pair
path remains the ground truth the equivalence tests compare against, and the
graphed forward is the oracle the pack forward is checked against.

Every table is encoded through :meth:`FCMScorer.index_repository`: a chunk of
tables is prepared as whole arrays, run through one graph-free dataset-encoder
forward per distinct segment count (columns concatenated, nothing padded) and
split per table only when cached,
chunks on every core a pinned BLAS leaves free but always cached in input
order; :meth:`FCMScorer.index_table` is that over one table.  A table's encoding is
bitwise the same whatever shares its chunk; the per-table reference it is
checked against (<= 1e-12) is :meth:`FCMModel.encode_table`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.repository import DataRepository
from ..data.table import Table
from ..nn import Tensor, compute_threads
from ..obs import span
from ..vision.extractor import VisualElementExtractor
from .config import FCMConfig
from .fastpath import (
    PREFILTER_DTYPE,
    ExactPack,
    FusedMatchKernel,
    build_exact_pack,
    coarse_rows,
    exact_pack_scores,
    update_exact_pack,
    _with_scan_plan,
)
from .model import FCMModel
from .preprocessing import (
    ChartInput,
    TableBatch,
    prepare_chart_input,
    prepare_table_inputs,
)


def _recycle_freed_blocks() -> None:
    """Make the allocator keep what an encoder chunk frees for the next one.

    glibc serves a block above its mmap threshold (128 KiB until moved) from
    the OS and hands it back on ``free``, so every chunk of an index build
    would page-fault its few MiB of activations in again — a quarter of a
    cold build.  Freeing one mapped block raises that threshold to the
    block's size, and the heap-trim threshold to twice it, for the rest of
    the process.  4 MiB: above a 16-table chunk's largest activation (1.3 to
    2 MB) with twice it above the chunk's total, and the smallest of 4 / 8 /
    16 MiB, which build equally fast while resident memory grows with the
    size (+2 to +6 % on the ledger at 16 MiB).  The block is never touched,
    so this costs two system calls; on another allocator it does nothing.
    """
    np.empty(1 << 22, dtype=np.uint8)


def pad_candidate_batch(
    representations: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-table ``(NC_i, N2_i, K)`` representations into one batch.

    Candidates are zero-padded to the largest column/segment counts in the
    batch.  Returns ``(batch, segment_mask, column_mask)`` where ``batch`` has
    shape ``(B, NC_max, N2_max, K)``, ``segment_mask`` is boolean
    ``(B, NC_max, N2_max)`` marking real segments and ``column_mask`` is
    boolean ``(B, NC_max)`` marking real columns.

    Example
    -------
    >>> batch, seg_mask, col_mask = pad_candidate_batch(
    ...     [np.ones((2, 3, 8)), np.ones((1, 2, 8))])
    >>> batch.shape, col_mask.tolist()
    ((2, 2, 3, 8), [[True, True], [True, False]])

    (For the differentiable training-path analogue over :class:`Tensor`
    inputs see :func:`repro.nn.pad_stack`.)
    """
    if not representations:
        raise ValueError("cannot build a batch from zero candidates")
    dim = representations[0].shape[-1]
    nc_max = max(rep.shape[0] for rep in representations)
    n2_max = max(rep.shape[1] for rep in representations)
    # The padded batch inherits the cached representations' dtype, so a
    # float32 model's scoring batches stay float32 end to end.
    batch = np.zeros(
        (len(representations), nc_max, n2_max, dim), dtype=representations[0].dtype
    )
    segment_mask = np.zeros((len(representations), nc_max, n2_max), dtype=bool)
    column_mask = np.zeros((len(representations), nc_max), dtype=bool)
    for i, rep in enumerate(representations):
        nc, n2, _ = rep.shape
        batch[i, :nc, :n2] = rep
        segment_mask[i, :nc, :n2] = True
        column_mask[i, :nc] = True
    return batch, segment_mask, column_mask


@dataclass
class EncodedTable:
    """Cached dataset-encoder output for one table."""

    table_id: str
    representations: np.ndarray  # (NC, N2, K)
    column_names: List[str]
    column_ranges: List[Tuple[float, float]]
    column_embeddings: np.ndarray  # (NC, K), mean over segments
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def fingerprint(self) -> str:
        """Content hash of ``representations`` (shape + dtype + bytes).

        Snapshots record it per table so an append can tell a table that was
        removed and re-added *with different content* under the same id from
        an unchanged one — an id-level diff alone would call that an empty
        delta and silently keep the stale encoding.  Computed on first use
        and kept: an entry is replaced in the cache, never edited in place.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(str(self.representations.shape).encode())
            digest.update(str(self.representations.dtype).encode())
            digest.update(np.ascontiguousarray(self.representations).tobytes())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint


class ScoreRow(NamedTuple):
    """What a chart's full scan of the index-wide exact pack leaves in the
    query LRU (:meth:`FCMScorer._carried_scores` starts the next one from it)."""

    scores: np.ndarray  # (T,) float64, in the scanned pack's position order
    chart_repr: np.ndarray  # the chart encoding they were computed from
    weights: int  # the kernel's ``weights_version()`` they were computed under
    generation: int  # this and the next two: the scanned pack's
    index: Dict[str, int]
    signature: np.ndarray


class FCMScorer:
    """Ranks candidate tables for line chart queries using a trained FCM."""

    #: Number of recently prepared query charts memoised by :meth:`prepare_query`.
    QUERY_CACHE_SIZE = 16

    def __init__(
        self,
        model: FCMModel,
        extractor: Optional[VisualElementExtractor] = None,
    ) -> None:
        self.model = model
        self.config: FCMConfig = model.config
        self.extractor = extractor or VisualElementExtractor()
        self._encoded: Dict[str, EncodedTable] = {}
        # Threads :meth:`index_repository` encodes on; ``None`` sizes it to
        # the host (:func:`repro.nn.compute_threads`).  Not a knob: a shard
        # worker sets 1 (its process already owns a core), tests force it.
        self._encode_threads: Optional[int] = None
        self._kernel: Optional[FusedMatchKernel] = None
        self._exact_pack: Optional[ExactPack] = None
        # What the held exact pack owes the writes since it was last read:
        # ``_pack_stale`` says there was one, ``_pack_ids_changed`` that one
        # added or removed a scorable id, ``_pack_dirty`` names the held ids
        # whose content changed (a subset of the pack's ids, so bounded by
        # it).  :meth:`exact_pack` settles all three.
        self._pack_stale = self._pack_ids_changed = False
        self._pack_dirty: Set[str] = set()
        # The kernel's ``weights_version()`` when a pack was last read (and
        # both packs' projections checked if it had moved: _settled_kernel).
        self._weights_version = 0
        # The one full-scan memo: a caller's id list and the pack (exact or
        # coarse) it names every row of, in order (:meth:`_positions`).
        self._full_scan: Optional[Tuple[Sequence[str], ExactPack]] = None
        #: From-scratch builds of the index-wide exact pack so far (transient
        #: per-call packs are not counted); the HTTP tier exports it as
        #: ``repro_exact_pack_builds_total``.
        self.exact_pack_builds = 0
        #: Rows projected into the index-wide exact pack so far, by
        #: from-scratch builds and by row-level maintenance alike (one per
        #: added or changed entry); ``repro_exact_pack_rows_projected_total``.
        self.exact_pack_rows_projected = 0
        #: Full scans answered from a held chart's :class:`ScoreRow`, and the
        #: kernel calls those kept / ran again (``repro_score_rows_repaired_total``,
        #: ``repro_score_row_calls_reused_total``, ``..._rerun_total``).
        self.score_rows_repaired = 0
        self.score_row_calls_reused = 0
        self.score_row_calls_rerun = 0
        # The pre-filter's pack (:meth:`coarse_pack`) and the ids whose row
        # in it is current: an id missing from the set — written since, or
        # never held — is re-pooled and re-projected by the next read.
        self._coarse_pack: Optional[ExactPack] = None
        self._coarse_clean: Set[str] = set()
        # Stream (segment-granular) registry: a *stream* table is stored as
        # an ordered family of window-segment entries in ``_encoded`` (each
        # under a composite segment id) and scored through a composed
        # parent-level EncodedTable built by concatenating the per-window
        # representations.  ``_segments`` maps parent id -> ordered segment
        # ids, ``_segment_owner`` is the reverse map, ``_composed`` caches
        # the composed entries (invalidated per-parent when a segment of
        # that parent changes — never wholesale).
        self._segments: Dict[str, List[str]] = {}
        self._segment_owner: Dict[str, str] = {}
        self._composed: Dict[str, EncodedTable] = {}
        # Maps chart *content hash* -> [ChartInput, ScoreRow or None] (see
        # LineChart.fingerprint): equal charts share an entry even when they
        # are distinct objects, and a chart mutated in place hashes to a new
        # key, so entries can never go stale.  Preprocessing is
        # model-independent, so the ChartInput stays valid while the model
        # trains; a row says which weights it was scored under.
        self._query_cache: "OrderedDict[str, list]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Table indexing
    # ------------------------------------------------------------------ #
    def _cache_encodings(self, batch: TableBatch, encoded: Sequence[tuple]) -> None:
        """Cache one chunk: each table's ``(representations, column embeddings)``
        from ``encoded``, its value ranges from ``batch``."""
        lows = [group.tolist() for group in batch.lows]
        highs = [group.tolist() for group in batch.highs]
        self.add_encoded_tables(
            EncodedTable(
                table_id=table_id,
                representations=representations,
                column_names=names,
                column_ranges=list(zip(lows[group][start:stop], highs[group][start:stop])),
                column_embeddings=embeddings,
            )
            for table_id, names, (group, start, stop), (representations, embeddings) in zip(
                batch.table_ids, batch.column_names, batch.slots, encoded
            )
        )

    def index_table(self, table: Table) -> EncodedTable:
        """Encode ``table`` once and cache the result: :meth:`index_repository`
        over the one table."""
        self.index_repository([table])
        return self._encoded[table.table_id]

    #: Tables encoded per dataset-encoder call during a bulk index build.
    #: Measured (``tools/build_breakdown.py``, ledger corpus): 8 pays for its
    #: extra Python, 16 to 64 read the same once freed blocks are recycled,
    #: 128 outgrows that; 16 keeps a chunk's activations (1.3 MB the largest)
    #: cache-resident.
    INDEX_BATCH_SIZE = 16

    def index_repository(
        self,
        repository: Iterable[Table],
        batch_size: Optional[int] = None,
    ) -> int:
        """Encode every table in the repository (idempotent), in batches;
        returns the threads the chunks were encoded on (0: nothing to encode).

        This is the one table-encode path of a deployment (the bulk build,
        incremental adds, every dirty window of a stream append).  Tables are
        chunked (``batch_size``, default :attr:`INDEX_BATCH_SIZE`; ``None``
        uses the default, ``0`` or negative disables chunking); a chunk is
        prepared as whole arrays, one group of columns per distinct ``N2``
        (:func:`~repro.fcm.preprocessing.prepare_table_inputs`), each group
        encoded by one graph-free dataset-encoder forward — the DA layers
        with their back-to-back affine maps composed
        (``DataAggregationEncoder.folded_forward``), then
        ``TransformerEncoder.array_forward``, nothing padded — and split per
        table only when cached (:meth:`_cache_encodings`).  A table's cached
        encoding is bitwise independent of the tables chunked with it, and
        within 1e-12 (float64) of the per-table :meth:`FCMModel.encode_table`.

        Chunks are encoded on as many threads as the host has cores to spare
        (:func:`repro.nn.compute_threads`: usable cores ÷ BLAS threads, so
        only when BLAS is pinned — ``OPENBLAS_NUM_THREADS=1`` — and never more
        than there are chunks), this thread among them, and always cached
        here in input order: the cache, its insertion order and every pack
        built from it are those of one thread encoding chunk after chunk, bit
        for bit (:meth:`_encode_chunks`).

        Example
        -------
        >>> scorer = FCMScorer(model)
        >>> scorer.index_repository(repository)          # chunked batch build
        >>> scorer.rank(chart, k=5)                      # uses the same cache
        """
        pending: List[Table] = []
        seen: set = set()
        for table in repository:
            if table.table_id in self._encoded or table.table_id in seen:
                continue
            seen.add(table.table_id)
            pending.append(table)
        if not pending:
            return 0
        if batch_size is None:
            batch_size = self.INDEX_BATCH_SIZE
        chunk = len(pending) if batch_size <= 0 else max(1, int(batch_size))
        chunks = [pending[start : start + chunk] for start in range(0, len(pending), chunk)]
        threads = min(len(chunks), self._encode_threads or compute_threads())
        _recycle_freed_blocks()
        # Entered once, here: the grad switch is process-wide, so helper
        # threads must not flip it themselves.
        with self.model.inference():
            self._encode_chunks(chunks, threads)
        return threads

    def _encode_chunk(self, tables: Sequence[Table]) -> Tuple[TableBatch, List[tuple]]:
        """Prepare and encode one chunk: ``(batch, per-table (representations,
        column embeddings))``; :meth:`FCMModel.encode_table_batch` graph-free,
        DA folded, each group one array until its column means are taken."""
        batch = prepare_table_inputs(tables, self.config)
        for table_id, names in zip(batch.table_ids, batch.column_names):
            if not names:
                raise ValueError(f"table {table_id!r} has no columns to encode")
        encoder = self.model.dataset_encoder
        encoded = []
        for segments in batch.groups:
            # BLAS sends a one-row product to ``gemv``, whose last bit differs
            # from the ``gemm`` the same row meets inside any larger batch;
            # doubled, a lone segment encodes to the same bits alone or not.
            lone = segments.shape[0] * segments.shape[1] == 1
            if lone:
                segments = np.concatenate([segments, segments])
            if encoder.da_encoder is not None:  # folded_forward's one caller
                embedded = encoder.da_encoder.folded_forward(segments)
            else:
                embedded = encoder.embed_segments(segments).numpy()
            group = encoder.encoder.array_forward(embedded)  # its one caller
            encoded.append(group[:1] if lone else group)
        means = [group.mean(axis=1) for group in encoded]
        # Copies: caching views would pin the whole group in memory.
        return batch, [
            (encoded[group][start:stop].copy(), means[group][start:stop].copy())
            for group, start, stop in batch.slots
        ]

    def _encode_chunks(self, chunks: Sequence[List[Table]], threads: int) -> None:
        """Encode ``chunks`` on ``threads`` threads, this one among them, and
        cache them on this one in input order.

        Every thread takes the next chunk from one shared cursor when it has
        finished its last, so at most one chunk per thread is in flight
        (NumPy releases the GIL inside the encoder's products).  A finished
        chunk waits, as its copied encodings, until every chunk before it is
        cached.  A chunk that raises stops the cursor: the chunks before it
        are cached and its error is raised here, after every helper thread
        has exited.  With ``threads == 1`` no helper starts and this thread
        encodes and caches chunk after chunk; any count leaves the same
        cache and raises the same error at the same chunk.
        """
        finished: Dict[int, object] = {}  # chunk number -> _encode_chunk's result or error
        cursor, stopped = 0, False
        turn = threading.Condition()

        def encode_next() -> bool:
            nonlocal cursor, stopped
            with turn:
                if stopped or cursor == len(chunks):
                    return False
                number, cursor = cursor, cursor + 1
            try:
                result = self._encode_chunk(chunks[number])
            except BaseException as error:  # raised by the caller, in chunk order
                result = error
            with turn:
                stopped |= isinstance(result, BaseException)
                finished[number] = result
                turn.notify()
            return True

        def helper() -> None:
            while encode_next():
                pass

        helpers = [threading.Thread(target=helper, daemon=True) for _ in range(threads - 1)]
        for thread in helpers:
            thread.start()
        try:
            for number in range(len(chunks)):
                while number not in finished and encode_next():
                    pass
                with turn:
                    turn.wait_for(lambda: number in finished)
                result = finished.pop(number)
                if isinstance(result, BaseException):
                    raise result
                self._cache_encodings(*result)
        finally:
            with turn:
                stopped = True
            for thread in helpers:
                thread.join()

    def add_encoded(self, encoded: EncodedTable) -> None:
        """Insert a precomputed :class:`EncodedTable` into the cache.

        This is how the serving layer merges shard-worker outputs and
        restores snapshots without re-running the dataset encoder; the entry
        is indistinguishable from one produced by :meth:`index_table`.  The
        arrays may be read-only views — e.g. zero-copy slices of a
        memory-mapped snapshot (:mod:`repro.serving.persistence`); every
        scoring path only reads them (candidate gathers copy via fancy
        indexing), so mapped entries behave exactly like heap copies.
        """
        self.add_encoded_tables([encoded])

    def add_encoded_tables(self, entries: Iterable[EncodedTable]) -> None:
        """:meth:`add_encoded` for many entries at once (a snapshot restore, a
        chunk of fresh encodings): one cache update, one invalidation pass."""
        entries = {encoded.table_id: encoded for encoded in entries}
        if not entries:
            return
        self._encoded.update(entries)
        self._touch_entries(entries.keys())
        self._invalidate_candidates(not entries.keys() <= self._segment_owner.keys())

    def evict_table(self, table_id: str) -> bool:
        """Drop the cached encoding of ``table_id`` (incremental removal)."""
        removed = self._encoded.pop(table_id, None) is not None
        if removed:
            self._touch_entries((table_id,))
            self._invalidate_candidates(table_id not in self._segment_owner)
        return removed

    def _invalidate_candidates(self, ids_changed: bool = True) -> None:
        """The table set changed: the exact pack must be reconciled before
        it is read again — against the scorable ids when ``ids_changed`` (one
        entered or left; a segment written under its owner is neither), else
        row by row.  The full-scan memo goes too, unless it is the exact
        pack's and no id moved (its list still names every row:
        :meth:`exact_pack` re-pairs it).  Per-entry state (composed stream
        entries, the rows of both packs) is invalidated at finer grain by
        :meth:`_touch_entries` — a dirty segment only discards its own and its
        parent's derived state."""
        self._pack_stale = True
        self._pack_ids_changed |= ids_changed
        if ids_changed or (self._full_scan and self._full_scan[1] is not self._exact_pack):
            self._full_scan = None

    def _touch_entries(self, table_ids: Collection[str]) -> None:
        """Per-entry invalidation: the content of ``table_ids`` changed (or
        they were added or evicted), so their coarse and exact-pack rows —
        and, for stream segments, the owning parents' composed entries and
        rows — are stale."""
        self._coarse_clean.difference_update(table_ids)
        if self._exact_pack is not None:
            self._pack_dirty.update(self._exact_pack.index.keys() & table_ids)
        for owner in {self._segment_owner[t] for t in self._segment_owner.keys() & table_ids}:
            self._composed.pop(owner, None)
            self._coarse_clean.discard(owner)
            self._pack_row_stale(owner)

    def _pack_row_stale(self, table_id: str) -> None:
        """``table_id``'s row of the held exact pack no longer matches its
        content.  Ids the pack does not hold need no record: the id-set
        difference has :meth:`exact_pack` project them anyway."""
        if self._exact_pack is not None and table_id in self._exact_pack.index:
            self._pack_dirty.add(table_id)

    # ------------------------------------------------------------------ #
    # Streams: segment families composed into parent-level entries
    # ------------------------------------------------------------------ #
    def bind_stream(self, parent_id: str, segment_ids: Sequence[str]) -> None:
        """Register (or replace) the ordered segment family of a stream.

        Every segment id must already be encoded (``_encoded``); the parent
        becomes scorable through the composed entry returned by
        :meth:`encoded_table`.  Rebinding after an append drops only the
        parent's composed entry and rows — sealed segments keep theirs.
        """
        segment_ids = list(segment_ids)
        if not segment_ids:
            raise ValueError(f"stream {parent_id!r} needs at least one segment")
        missing = [s for s in segment_ids if s not in self._encoded]
        if missing:
            raise KeyError(
                f"stream {parent_id!r} references unencoded segment(s) {missing}"
            )
        regrouped = self._segments.get(parent_id) != segment_ids
        for stale in self._segments.get(parent_id, ()):  # rebind: drop old owners
            self._segment_owner.pop(stale, None)
        self._segments[parent_id] = segment_ids
        for segment_id in segment_ids:
            self._segment_owner[segment_id] = parent_id
        self._composed.pop(parent_id, None)
        self._coarse_clean.discard(parent_id)
        self._pack_row_stale(parent_id)  # composed from another family now
        self._invalidate_candidates(regrouped)

    def drop_stream(self, parent_id: str) -> List[str]:
        """Forget a stream's registry entry; returns its segment ids.

        The segment encodings themselves are *not* evicted here — callers
        evict them individually (they may be mid-replacement).
        """
        segment_ids = self._segments.pop(parent_id, [])
        for segment_id in segment_ids:
            self._segment_owner.pop(segment_id, None)
        self._composed.pop(parent_id, None)
        self._coarse_clean.discard(parent_id)
        if segment_ids:
            self._invalidate_candidates()
        return list(segment_ids)

    def is_stream(self, table_id: str) -> bool:
        return table_id in self._segments

    def segment_owner(self, table_id: str) -> Optional[str]:
        """The stream parent owning segment ``table_id`` (``None`` otherwise)."""
        return self._segment_owner.get(table_id)

    def stream_segment_ids(self, parent_id: str) -> List[str]:
        return list(self._segments.get(parent_id, ()))

    def _compose_stream(self, parent_id: str) -> EncodedTable:
        """The parent-level entry of a stream: per-window representations
        concatenated along the segment axis, ranges merged element-wise.

        Deterministic in the segment contents alone, so an incrementally
        grown stream composes bit-identically to a from-scratch rebuild
        over the same rows (the streaming-parity property).
        """
        cached = self._composed.get(parent_id)
        if cached is not None:
            return cached
        parts = [self._encoded[s] for s in self._segments[parent_id]]
        names = list(parts[0].column_names)
        for part in parts[1:]:
            if list(part.column_names) != names:
                raise ValueError(
                    f"stream {parent_id!r} has segments with mismatched "
                    f"columns: {names} vs {list(part.column_names)}"
                )
        representations = np.concatenate(
            [part.representations for part in parts], axis=1
        )
        ranges: List[Tuple[float, float]] = []
        for column in range(len(names)):
            lows_highs = [part.column_ranges[column] for part in parts]
            ranges.append(
                (
                    min(float(pair[0]) for pair in lows_highs),
                    max(float(pair[1]) for pair in lows_highs),
                )
            )
        composed = EncodedTable(
            table_id=parent_id,
            representations=representations,
            column_names=names,
            column_ranges=ranges,
            column_embeddings=representations.mean(axis=1),
        )
        self._composed[parent_id] = composed
        return composed

    @property
    def indexed_table_ids(self) -> List[str]:
        """The scorable ids: plain tables plus stream parents.

        Stream *segment* ids are internal — they never appear here; the
        parent id (scored through its composed entry) does.
        """
        if not self._segments:
            return list(self._encoded.keys())
        ids = [t for t in self._encoded if t not in self._segment_owner]
        ids.extend(self._segments.keys())
        return ids

    def cache_nbytes(self) -> int:
        """Total bytes of the cached encoding arrays (reps + column
        embeddings) plus the exact pack, when one is built.

        Counts array payloads only (not Python-object overhead).  Note that
        for memory-mapped entries this is the *mapped* size, not resident
        memory: untouched pages cost address space, no RAM — which is the
        point of ``ServingConfig(mmap_index=True)``.  The exact pack is
        always private heap.
        """
        return self.exact_pack_nbytes + sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in self._encoded.values()
        ) + sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in self._composed.values()
        )

    def encoded_table(self, table_id: str) -> EncodedTable:
        """The cached entry for ``table_id`` — composed for stream parents.

        Plain tables and stream *segments* come straight from the cache; a
        stream parent id returns the composed (concatenated) entry, built
        lazily and cached until one of its segments changes.
        """
        if table_id in self._segments:
            return self._compose_stream(table_id)
        if table_id not in self._encoded:
            raise KeyError(f"table {table_id!r} has not been indexed")
        return self._encoded[table_id]

    # ------------------------------------------------------------------ #
    # Query processing
    # ------------------------------------------------------------------ #
    def clear_query_cache(self) -> None:
        """Drop all memoised query preparations (see :meth:`prepare_query`)."""
        self._query_cache.clear()

    def prepare_query(
        self, chart: LineChart, fingerprint: Optional[str] = None
    ) -> ChartInput:
        """Extract visual elements and build the chart encoder input.

        Results are memoised per chart *content* (small LRU keyed by
        :meth:`LineChart.fingerprint <repro.charts.rasterizer.LineChart.fingerprint>`):
        a single query is prepared once even when it is scored under several
        index strategies, against several candidate batches, or arrives as a
        *different object with equal pixels* (the same table rendered twice).
        Mutating a chart in place simply hashes to a new key — no stale
        entry can be returned.

        ``fingerprint`` is ``chart.fingerprint()`` when the caller has just
        computed it (the service keys its result cache by it), so one query
        hashes its pixels once; it must not outlive a mutation of ``chart``.
        """
        key = chart.fingerprint() if fingerprint is None else fingerprint
        hit = self._query_cache.get(key)
        if hit is not None:
            self._query_cache.move_to_end(key)
            return hit[0]
        with span("prepare_query"):
            elements = self.extractor.extract(chart)
            chart_input = prepare_chart_input(chart, elements, self.config)
        self._query_cache[key] = [chart_input, None]
        while len(self._query_cache) > self.QUERY_CACHE_SIZE:
            self._query_cache.popitem(last=False)
        return chart_input

    def encode_query(self, chart_input: ChartInput) -> np.ndarray:
        """The chart encoder's ``(M, N1, K)`` output for a prepared query.

        LSH lookup, the coarse pass and verification all start from this
        array; :meth:`HybridQueryProcessor.query
        <repro.index.hybrid.HybridQueryProcessor.query>` computes it once and
        hands it to each of them as ``chart_repr``.
        """
        with self.model.inference(), span("encode_chart"):
            return np.ascontiguousarray(self.model.encode_chart(chart_input).numpy())

    def query_line_embeddings(self, chart: LineChart) -> np.ndarray:
        """Line-level embeddings of a query chart (for the LSH index)."""
        chart_input = self.prepare_query(chart)
        with self.model.inference():
            return self.model.line_embeddings(chart_input)

    def _select_columns(
        self, encoded: EncodedTable, y_range: Tuple[float, float]
    ) -> np.ndarray:
        """Apply the y-tick column filter to a cached table encoding."""
        low, high = y_range
        tolerance = self.config.column_filter_tolerance
        pad = tolerance * max(abs(low), abs(high), 1.0)
        keep = [
            idx
            for idx, (c_low, c_high) in enumerate(encoded.column_ranges)
            if c_high >= low - pad and c_low <= high + pad
        ]
        if not keep:
            keep = list(range(len(encoded.column_ranges)))
        return encoded.representations[keep]

    def score_pair(self, chart_input: ChartInput, encoded: EncodedTable) -> float:
        """Relevance of one query against one cached table."""
        with self.model.inference():
            chart_repr = self.model.encode_chart(chart_input)
            table_repr = Tensor(
                self._select_columns(encoded, chart_input.y_range),
                dtype=self.config.numeric_dtype,
            )
            return float(self.model.match(chart_repr, table_repr).item())

    def score_chart(
        self,
        chart: LineChart,
        table_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Relevance against the indexed tables, one matcher call per table.

        This is the per-pair reference path; :meth:`score_chart_batch` returns
        the same scores with one stacked matcher call and is what the ranking
        and index layers use.
        """
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else self.indexed_table_ids
        scores: Dict[str, float] = {}
        with self.model.inference():
            chart_repr = self.model.encode_chart(chart_input)
            for table_id in ids:
                encoded = self.encoded_table(table_id)
                table_repr = Tensor(
                    self._select_columns(encoded, chart_input.y_range),
                    dtype=self.config.numeric_dtype,
                )
                scores[table_id] = float(self.model.match(chart_repr, table_repr).item())
        return scores

    def score_chart_batch(
        self,
        chart: LineChart,
        table_ids: Optional[Sequence[str]] = None,
        batch_size: Optional[int] = 256,
        fused: Optional[bool] = None,
    ) -> Dict[str, float]:
        """Relevance against the indexed tables on the batched path.

        The chart is encoded once and every candidate is scored by
        :meth:`score_encoded_batch` (which see for the two scoring bodies and
        ``fused``).  Scores match :meth:`score_chart` to floating-point
        accuracy.

        Parameters
        ----------
        batch_size:
            On the graphed body, the candidates scored per matcher forward
            (bounds the padded batch; ``None`` scores them all in one).  On
            the pack body it only picks the pack: more scorable ids than this
            read the index-wide pack, fewer (or ``None``) are projected into
            a transient one — the kernel sizes its own calls
            (:data:`repro.fcm.fastpath.CALL_MAX_CELLS`).

        Example
        -------
        >>> scorer.index_repository(repository)
        >>> scores = scorer.score_chart_batch(chart)       # {table_id: score}
        >>> reference = scorer.score_chart(chart)          # per-pair path
        >>> max(abs(scores[t] - reference[t]) for t in scores) < 1e-8
        True
        """
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else self.indexed_table_ids
        return self.score_encoded_batch(
            chart_input, ids, batch_size=batch_size, fused=fused
        )

    def _fused_kernel(self) -> Optional[FusedMatchKernel]:
        """The per-scorer fused kernel, or ``None`` for unsupported matchers."""
        if self._kernel is None:
            self._kernel = FusedMatchKernel(self.model.matcher)
        return self._kernel if self._kernel.supported else None

    # ------------------------------------------------------------------ #
    # Exact pack: table-side projections for exact verification
    # ------------------------------------------------------------------ #
    @property
    def exact_pack_nbytes(self) -> int:
        """Bytes the index-wide exact pack holds right now (``0`` while none
        is built); the HTTP tier exports it as ``repro_exact_pack_bytes``."""
        return self._exact_pack.nbytes if self._exact_pack is not None else 0

    def _pack_entries(self, sorted_ids: Iterable[str]) -> List[tuple]:
        """The :func:`build_exact_pack` input rows for ``sorted_ids``."""
        return [
            (encoded.table_id, encoded.representations, encoded.column_ranges)
            for encoded in map(self.encoded_table, sorted_ids)
        ]

    def exact_pack(self) -> ExactPack:
        """The HCMAN key/value projections of every scorable entry (plain
        tables + composed stream parents), built lazily and then maintained.

        A write does not drop the pack: the ids it touched are recorded
        (:meth:`_touch_entries`) and the next exact scan of more than one
        batch reconciles the held pack — against ``sorted(indexed_table_ids)``
        when an id entered or left, else in the pack's own order (an append
        to a stream walks no id and keeps ``index``): rows of removed ids
        leave, added and changed ids are projected (only those) and spliced
        in, untouched buckets are kept by reference
        (:func:`repro.fcm.fastpath.update_exact_pack`).  After any
        interleaving of writes the pack equals a from-scratch build over the
        same entries, array for array.  It is built from scratch
        (:attr:`exact_pack_builds`) the first time, and again when the
        matcher's projection weights no longer equal the copy it was
        projected under; :attr:`exact_pack_rows_projected` counts every row
        projected either way.  Raises ``RuntimeError`` for matchers without
        a fused HCMAN kernel.
        """
        kernel = self._settled_kernel()
        pack = self._exact_pack
        if pack is not None and not self._pack_stale:
            return pack
        if pack is None:
            ids = fresh = sorted(self.indexed_table_ids)
            self.exact_pack_builds += 1
        elif self._pack_ids_changed:
            ids, dirty, held = sorted(self.indexed_table_ids), self._pack_dirty, pack.index
            fresh = [t for t in ids if t in dirty or t not in held]
        else:  # same ids, in the pack's own order: nothing to sort or sweep
            ids, fresh = None, sorted(self._pack_dirty)
        self._exact_pack = _with_scan_plan(
            update_exact_pack(kernel, pack, ids, self._pack_entries(fresh))
        )
        if self._full_scan is not None and self._full_scan[1] is pack:
            self._full_scan = (self._full_scan[0], self._exact_pack)
        self._pack_stale = self._pack_ids_changed = False
        self._pack_dirty.clear()
        self.exact_pack_rows_projected += len(fresh)
        return self._exact_pack

    def coarse_pack(self) -> ExactPack:
        """The pre-filter's pack: one entry per scorable id and per stream
        segment (subscriptions pre-filter dirty windows), each the entry's
        :func:`~repro.fcm.fastpath.coarse_rows` at ``PREFILTER_DTYPE`` with
        every column range open, so the y-tick filter keeps every column.
        Built lazily and then maintained like :meth:`exact_pack`: a write
        takes the touched ids out of ``_coarse_clean``, and the next read
        re-pools and re-projects exactly the ids missing from it, keeps every
        other row and equals a from-scratch build over the same entries,
        array for array.  Rebuilt whole when the projection weights move.
        Raises ``RuntimeError`` for matchers without a fused HCMAN kernel.
        """
        kernel = self._settled_kernel()
        pack, clean = self._coarse_pack, self._coarse_clean
        # ``clean`` only shrinks between reads and names held ids only, so it
        # equals the held ids and the live ones exactly when nothing moved.
        live = len(self._encoded) + len(self._segments)
        if pack is not None and len(clean) == len(pack.index) == live:
            return pack
        ids = sorted(chain(self._encoded, self._segments))
        fresh = [table_id for table_id in ids if table_id not in clean]
        self._coarse_pack = update_exact_pack(kernel, pack, ids, self._coarse_entries(fresh))
        self._coarse_clean = set(ids)
        return self._coarse_pack

    def _coarse_entries(self, sorted_ids: Sequence[str]) -> List[tuple]:
        """The :func:`update_exact_pack` input rows of the coarse pack."""
        reps = [self.encoded_table(table_id).representations for table_id in sorted_ids]
        return [
            (table_id, rows, [(-np.inf, np.inf)] * len(rows))
            for table_id, rows in zip(sorted_ids, coarse_rows(reps, PREFILTER_DTYPE))
        ]

    def _settled_kernel(self) -> FusedMatchKernel:
        """The fused kernel, after the one weights check of a pack read:
        :meth:`FusedMatchKernel.weights_version`, and only when it moved,
        each held pack's frozen projection weights against the live ones —
        a pack they no longer equal is dropped, freed before its replacement
        is built.  The version is shared, so either read settles both."""
        kernel = self._fused_kernel()
        if kernel is None:
            raise RuntimeError("the exact and coarse packs need the fused HCMAN kernel")
        version = kernel.weights_version()
        if version != self._weights_version:  # a parameter moved: a projection one?
            self._weights_version = version
            current = kernel.projections_current
            if self._exact_pack is not None and not current(self._exact_pack.weights):
                self._exact_pack = None
            if self._coarse_pack is not None and not current(self._coarse_pack.weights):
                self._coarse_pack, self._coarse_clean = None, set()
        return kernel

    def _positions(
        self, ids: Sequence[str], pack: ExactPack, remember: bool = True
    ) -> Optional[np.ndarray]:
        """The positions of ``ids`` in ``pack`` (``KeyError`` naming the
        first id it does not hold), or ``None`` when they name every row in
        order — a full scan: the memoised ``(ids, pack)``, recognised by
        identity, or one found here and memoised when ``remember``."""
        memo = self._full_scan
        if memo is not None and memo[0] is ids and memo[1] is pack:
            return None
        rows = map(pack.index.__getitem__, ids)
        positions = np.fromiter(rows, dtype=np.int64, count=len(ids))
        if remember and len(ids) == len(pack.index):
            if np.array_equal(positions, np.arange(len(ids))):
                self._full_scan = (ids, pack)
                return None
        return positions

    def _score_from_pack(
        self,
        kernel: FusedMatchKernel,
        chart_input: ChartInput,
        chart_repr: np.ndarray,
        ids: Sequence[str],
        chunk: int,
        pack: Optional[ExactPack] = None,
    ) -> np.ndarray:
        """Scores of ``ids``, aligned with them (:func:`exact_pack_scores`).

        More ids than ``chunk`` (the caller's ``batch_size``), all of them
        entries of the index-wide pack, read its cached projections.
        Anything else is projected into a transient pack of exactly the
        requested entries, so a short candidate list never makes the whole
        index's projections resident — unless the caller, scoring several
        queries against one set, built it once (:meth:`_transient_pack`) and
        hands it in.  Any pack scores an entry the same up to the last bit.

        A list naming every entry of the index-wide pack in order is a *full
        scan*, recognised by identity: the slow path remembers the ``(list,
        pack)`` pair it checked, and while that list object comes back and
        the pack is still the held one (a write that moves an id drops the
        memo) the scan runs on the pack's own plan — no set algebra, no
        position lookup, no sort.  Do not mutate a list you pass again.  A
        full scan by a chart the query LRU holds leaves a :class:`ScoreRow`
        there, and its next one, if a write came between, re-runs only the
        kernel calls that write reached (:meth:`_carried_scores`).
        """
        memo, source, positions = self._full_scan, "shared", None
        known = pack is None and memo is not None and memo[0] is ids and len(ids) > chunk
        # Reconciling a write that moved no id pairs the memo's list with
        # the reconciled pack, so read the pack first and the memo again.
        full = known and self.exact_pack() is self._full_scan[1]
        if full:
            pack, source = self._exact_pack, "cached"
        elif pack is None:
            wanted = set(ids)
            cached = (
                len(ids) > chunk
                and self._segment_owner.keys().isdisjoint(wanted)
                and wanted - self._segments.keys() <= self._encoded.keys()
            )
            source = "cached" if cached else "fresh"
        scan = "full" if full else "subset"
        with span("verify_exact", tables=len(ids), projections=source, scan=scan) as sp:
            if source == "fresh":
                pack = self._transient_pack(sorted(wanted))
            elif pack is None:
                pack = self.exact_pack()
            if not full:
                positions = self._positions(ids, pack, remember=source == "cached")
                full = positions is None
            # The chart ``prepare_query`` handed out last sits last in the LRU.
            held = next(reversed(self._query_cache.values()), None) if full else None
            if held is not None and held[0] is not chart_input:
                held = None
            carried = self._carried_scores(held, pack, chart_repr)
            if carried is not None:
                rerun = int(carried[1].sum())
                reused = len(carried[1]) - rerun
                self.score_rows_repaired += 1
                self.score_row_calls_reused += reused
                self.score_row_calls_rerun += rerun
                if sp is not None:
                    sp.attributes.update(scan="repair", reused=reused, rerun=rerun)
            tol = self.config.column_filter_tolerance
            scores = exact_pack_scores(
                kernel, pack, chart_repr, positions, chart_input.y_range, tol, carried
            )
            if held is not None:
                plan = (pack.generation, pack.index, pack.signature)
                held[1] = ScoreRow(scores.copy(), chart_repr.copy(), self._weights_version, *plan)
            return scores

    def _carried_scores(
        self, held: Optional[list], pack: ExactPack, chart_repr: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:func:`exact_pack_scores`' ``carried`` for a full scan of ``pack``
        by the chart of LRU entry ``held``: its row's scores at today's
        positions and, per kernel call, whether it must run again — it holds
        a row that is new or was re-projected since, or one that no longer
        sits at the same offset of a batch of the same size and padded shape.
        Any other call would compute, bit for bit, what the row holds.
        ``None`` when there is nothing to carry: no row, no write since it
        (the same scan again is a scan), a matcher parameter moved since
        (:meth:`exact_pack` has just asked the kernel), another encoding."""
        row = held[1] if held is not None else None
        if (
            row is None
            or row.generation == pack.generation
            or row.weights != self._weights_version
            or not np.array_equal(row.chart_repr, chart_repr)
        ):
            return None
        fresh = pack.born > row.generation
        scores, signature = row.scores.copy(), row.signature
        if row.index is not pack.index:  # an id entered or left: rows moved
            was = np.fromiter(
                map(row.index.get, pack.index, repeat(-1)), np.int64, len(pack.index)
            )
            scores, signature, fresh = scores[was], signature[was], fresh | (was < 0)
        stale = fresh | (signature != pack.signature).any(axis=1)
        begins = [call[0] for call in pack.calls]
        return scores, np.logical_or.reduceat(stale[pack.order], begins)

    def _transient_pack(self, sorted_ids: Sequence[str]) -> Optional[ExactPack]:
        """A pack of exactly ``sorted_ids`` (segment ids too) to pass as
        :meth:`_score_ids`' ``pack``; ``None`` without a fused kernel."""
        kernel = self._fused_kernel()
        if kernel is None:
            return None
        return build_exact_pack(kernel, self._pack_entries(sorted_ids))

    def score_encoded_batch(
        self,
        chart_input: ChartInput,
        table_ids: Sequence[str],
        batch_size: Optional[int] = 256,
        fused: Optional[bool] = None,
        chart_repr: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Score a *prepared* query against a shard of cached table encodings.

        The shard-local entry point of the process-parallel query engine
        (:mod:`repro.serving.workers`): the parent process extracts visual
        elements and preprocesses the chart **once** (:meth:`prepare_query`),
        then ships the resulting :class:`~repro.fcm.preprocessing.ChartInput`
        to each worker together with that worker's shard of candidate table
        ids.  Because the chart input, the cached encodings and the model
        weights are all identical to the parent's, the scores agree with the
        single-process :meth:`score_chart_batch` path to <= 1e-8 in float64.

        Every listed table id must already be in the encoding cache
        (:meth:`index_repository` / :meth:`add_encoded`); unknown ids raise
        ``KeyError``.  ``batch_size`` as in :meth:`score_chart_batch`: it
        chunks the graphed body and, on the pack body, chooses between the
        index-wide and a transient pack.

        There are two scoring bodies.  When the matcher is the HCMAN the
        fused kernel supports, every candidate set goes through the exact
        pack (:meth:`_score_from_pack`): same-shape batches of table-side
        projections, sparse shapes padded together, so a table's score does not depend (beyond
        the last bit) on which other candidates are verified with it.  Any
        other matcher — the averaged ablation — takes the graphed body:
        zero-padded chunks through :meth:`FCMModel.match_pairs`
        (:meth:`_graphed_scores`).
        ``fused=False`` forces the graphed body for a supported matcher too:
        the oracle the pack forward is checked against, not a serving
        option.  The numeric contract (:mod:`repro.fcm.fastpath` states it
        in full): pack forward vs graphed <= 1e-12 in float64 and <= 5e-5 in
        float32, observed <= 4e-16; an entry's score independent of its
        co-candidates up to the last bit; a maintained index-wide pack
        bitwise a rebuilt one.

        ``chart_repr`` is :meth:`encode_query` of ``chart_input`` when the
        caller already holds it (internal); the chart is encoded here
        otherwise.  The dict is built here, at the edge: the scores come
        from :meth:`_score_ids` as an array aligned with ``table_ids``.
        """
        ids = list(table_ids)
        scores = self._score_ids(chart_input, ids, batch_size, fused, chart_repr)
        return dict(zip(ids, scores.tolist()))

    def _score_ids(
        self,
        chart_input: ChartInput,
        ids: Sequence[str],
        batch_size: Optional[int] = 256,
        fused: Optional[bool] = None,
        chart_repr: Optional[np.ndarray] = None,
        pack: Optional[ExactPack] = None,
    ) -> np.ndarray:
        """:meth:`score_encoded_batch` as a float64 array aligned with
        ``ids`` — what the query processor and the subscription engine rank
        from.  ``ids`` is read, never copied, so the same list object again
        lets :meth:`_score_from_pack` recognise a full scan; ``pack`` is a
        :meth:`_transient_pack` holding every id of ``ids``."""
        if not len(ids):
            return np.empty(0, dtype=np.float64)
        kernel = None if fused is False else self._fused_kernel()
        chunk = len(ids) if not batch_size else max(1, int(batch_size))
        if chart_repr is None:
            chart_repr = self.encode_query(chart_input)
        if kernel is not None:
            return self._score_from_pack(
                kernel, chart_input, chart_repr, ids, chunk, pack
            )
        y_range = chart_input.y_range
        selected = [self._select_columns(self.encoded_table(t), y_range) for t in ids]
        return self._graphed_scores(chart_repr, selected, chunk)

    def _graphed_scores(
        self, chart_repr: np.ndarray, representations: Sequence[np.ndarray], chunk: int
    ) -> np.ndarray:
        """One unpadded chart against each ``(NC, N2, K)`` representation
        through the model's own batched forward, no graph built: ``chunk``
        candidates at a time are zero-padded (:func:`pad_candidate_batch`)
        and scored by one :meth:`FCMModel.match_pairs` call, the chart handed
        in with a leading axis of 1 and broadcast, not tiled."""
        dtype = self.config.numeric_dtype
        chart_mask = np.ones((1,) + chart_repr.shape[:2], dtype=bool)
        scores = np.empty(len(representations), dtype=np.float64)
        with self.model.inference():
            chart = Tensor(chart_repr[None], dtype=dtype)
            for start in range(0, len(representations), chunk):
                batch, segment_mask, _ = pad_candidate_batch(
                    representations[start : start + chunk]
                )
                scores[start : start + chunk] = self.model.match_pairs(
                    chart, Tensor(batch, dtype=dtype), chart_mask, segment_mask
                ).numpy()
        return scores

    def prefilter_ids(
        self,
        chart_input: ChartInput,
        table_ids: Sequence[str],
        keep: int,
        chart_repr: Optional[np.ndarray] = None,
    ) -> List[str]:
        """Rank ``table_ids`` by the coarse int8 score and keep the best.

        The coarse score runs the real matcher on the entries' coarse rows
        (:func:`repro.fcm.fastpath.coarse_rows`): with a fused kernel, the
        coarse pack (:meth:`coarse_pack`) scored by
        :func:`~repro.fcm.fastpath.exact_pack_scores` with ``exact=False``;
        otherwise the graphed path over the same rows at the session dtype.
        Returns up to ``keep`` table ids (lexicographically sorted, like the
        candidate sets the verify stage consumes); ties break on table id so
        the cut is deterministic.  When ``keep`` covers the whole candidate
        set this is the identity; otherwise an id that is not indexed raises
        ``KeyError``, as verification would.  ``chart_repr`` as in
        :meth:`score_encoded_batch`.  A list naming every row of the coarse
        pack is remembered by identity, as in :meth:`_score_from_pack` (and
        under its rule).
        """
        ids = list(table_ids)
        if keep >= len(ids):
            return ids
        if chart_repr is None:
            chart_repr = self.encode_query(chart_input)
        kernel = self._fused_kernel()
        if kernel is not None:
            # The coarse pass only ranks for the overscan cut, so it runs at
            # PREFILTER_DTYPE (float32) with native-dtype accumulation even
            # under a float64 session — the exact re-score of the survivors
            # restores full precision.  Every coarse column range is open, so
            # the y-tick filter keeps every column.
            pack = self.coarse_pack()
            scores = exact_pack_scores(
                kernel,
                pack,
                chart_repr.astype(PREFILTER_DTYPE, copy=False),
                self._positions(table_ids, pack),
                chart_input.y_range,
                self.config.column_filter_tolerance,
                exact=False,
            )
        else:
            reps = [self.encoded_table(table_id).representations for table_id in ids]
            rows = coarse_rows(reps, chart_repr.dtype)
            # Chunked as verification is by default (``batch_size=256``).
            scores = self._graphed_scores(chart_repr, rows, 256)
        # Descending score, ties broken on table id, so the cut is
        # deterministic.  Partitioning first restricts the id-aware sort to
        # the survivors plus their boundary ties instead of every candidate.
        keep = max(int(keep), 0)
        if keep == 0:
            return []
        neg = -scores
        threshold = np.partition(neg, keep - 1)[keep - 1]
        surviving = np.flatnonzero(neg <= threshold)
        names = np.asarray([ids[row] for row in surviving.tolist()])
        order = np.lexsort((names, neg[surviving]))
        return sorted(names[order[:keep]].tolist())

    def rank(
        self,
        chart: LineChart,
        k: Optional[int] = None,
        table_ids: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, float]]:
        """Top-``k`` (table_id, score) pairs for the query chart."""
        scores = self.score_chart_batch(chart, table_ids=table_ids)
        ranked = sorted(scores.items(), key=lambda item: item[1], reverse=True)
        return ranked if k is None else ranked[:k]

    def top_k_ids(
        self,
        chart: LineChart,
        k: int,
        table_ids: Optional[Sequence[str]] = None,
    ) -> List[str]:
        return [table_id for table_id, _ in self.rank(chart, k=k, table_ids=table_ids)]


def build_scorer_for_repository(
    model: FCMModel,
    repository: DataRepository,
    extractor: Optional[VisualElementExtractor] = None,
) -> FCMScorer:
    """Create a scorer and pre-index the whole repository."""
    scorer = FCMScorer(model, extractor=extractor)
    scorer.index_repository(repository)
    return scorer
