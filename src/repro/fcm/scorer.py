"""Query-time scoring: rank a repository of tables for a line chart query.

The scorer wraps the trained FCM model with the pieces a deployment needs:

* the visual element extractor turning a query chart into lines + y range;
* the index, one immutable :class:`IndexGeneration` of dataset-encoder
  outputs (so each table is encoded once and only the cheap cross-modal
  matcher runs per (query, table) pair), its packs and candidate
  structures, replaced whole by every write (:meth:`FCMScorer.write`);
* the y-tick column filter of Sec. IV-C, applied by *selecting* the cached
  column representations whose value range overlaps the query's y range.

Inference contract
------------------
The served query and the index build construct no ``Tensor``: a chart is
encoded by ``SegmentLineChartEncoder.array_forward`` (:meth:`FCMScorer.encode_query`),
a chunk of tables by ``SegmentDatasetEncoder.array_forward``, both graph-free,
in eval mode and bitwise the no-grad graph.  Only the graphed oracles —
:meth:`FCMScorer.score_chart`, the graphed body of the batched path and
:meth:`FCMModel.relevance <repro.fcm.model.FCMModel.relevance>` — enter
:meth:`repro.nn.Module.inference` (eval mode, no autodiff graph on the
calling thread; see :mod:`repro.nn.tensor`).  Training goes through
:class:`~repro.fcm.training.FCMTrainer`, which calls the model directly.

Two scoring paths produce the same scores (<= 1e-8 in float64; the pack
forward and the graphed forward of the batched path agree with each other to
<= 1e-12):

* :meth:`FCMScorer.score_chart` — the per-pair reference path, one matcher
  forward per candidate table;
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
split per table only when its entry is made,
chunks on every core a pinned BLAS leaves free but always collected in input
order; :meth:`FCMScorer.index_table` is that over one table.  A table's encoding is
bitwise the same whatever shares its chunk; the per-table reference it is
checked against (<= 1e-12) is :meth:`FCMModel.encode_table`.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.repository import DataRepository
from ..data.table import Table
from ..nn import Tensor, compute_threads
from ..obs import MetricsRegistry, span
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
    prepare_chart_input,
    prepare_table_inputs,
)

if TYPE_CHECKING:  # the query processor's candidate structures
    from ..index.interval_tree import IntervalTree
    from ..index.lsh import RandomHyperplaneLSH


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


def _one_malloc_arena() -> None:
    """Serve every thread's blocks from one glibc arena.

    A write splices pack buckets on whichever thread runs it (the HTTP tier
    starts one per connection), and with an arena per thread the buckets
    one write frees stay parked while the next allocates elsewhere: +7 MiB
    (+11 %) resident on the ledger's ``http_zipf`` (2-CPU host).  Where
    ``mallopt`` is missing this does nothing."""
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX
    except (AttributeError, OSError, TypeError):
        pass


_one_malloc_arena()


def _first_by_id(entries: Iterable) -> list:
    """``entries`` (tables or their encodings) with each id's first
    occurrence only, in order: a list naming an id twice is indexed once."""
    first: dict = {}
    for entry in entries:
        first.setdefault(entry.table_id, entry)
    return list(first.values())


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


class StreamFamily(NamedTuple):
    """A stream: its ordered window segments, the append engine's state for
    it (row counts, the unsealed tail: :mod:`repro.serving.streaming`) and
    its parent-level entry, the windows composed (:func:`_composed`)."""

    segments: Tuple[str, ...]
    state: Mapping
    composed: EncodedTable


class PackSlots:
    """A generation's two index-wide packs, each ``None`` until carried over
    by :meth:`FCMScorer.advance` or built by a read, and the weights version
    both were last checked at (:meth:`FCMScorer._filled`)."""

    __slots__ = ("exact", "coarse", "version")

    def __init__(self) -> None:
        self.exact = self.coarse = self.version = None


@dataclass(frozen=True)
class IndexBuildStats:
    """What the write that made a generation did: the seconds its interval
    index and LSH took, the scorable ids after it, the threads its table
    encode ran on (1: one core, 0: it encoded none, as a sharded build's
    merge), the ids whose entries it added, in order, and the indexed ids
    it dropped."""

    interval_seconds: float = 0.0
    lsh_seconds: float = 0.0
    num_tables: int = 0
    encode_threads: int = 0
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)


_NUMBERS = count(1)  # IndexGeneration.number; 0 is the empty origin's

#: What a scorer counts, each the counter ``repro_<name>_total`` of its
#: registry (shown at 0 before its first event): name -> help text.
SCORER_COUNTS = {
    "exact_pack_builds": "From-scratch builds of the index-wide exact pack (first "
    "multi-chunk exact scan, or after a weight change).",
    "exact_pack_rows_projected": "Entries projected into the index-wide exact pack: every "
    "row of a from-scratch build, one row per entry a write added or changed.",
    "score_rows_repaired": "Full exact scans started from the score row the chart's last "
    "one left in the query LRU (a write came between).",
    "score_row_calls_reused": "Kernel calls those scans copied from the row.",
    "score_row_calls_rerun": "Kernel calls those scans ran again: a write reached them.",
}


class IndexGeneration(NamedTuple):
    """One state of the index, never changed once made: a write makes the
    next (:meth:`FCMScorer.advance`), and a reader holding one sees the
    same index whatever is written meanwhile.

    ``encoded`` holds the plain tables and stream window segments in
    insertion order, ``owner`` each segment's stream.  ``scorable`` — plain tables and stream
    parents as a set and a sorted list — stays the same two objects until a
    write moves an id.  ``intervals`` / ``lsh`` are the query processor's
    candidate structures (``None`` without one); ``packs`` is the one part
    filled after the fact, by the first read that needs a pack.
    """

    number: int
    encoded: Mapping[str, EncodedTable]
    streams: Mapping[str, StreamFamily]
    owner: Mapping[str, str]
    scorable: Tuple[AbstractSet[str], List[str]]
    intervals: Optional[IntervalTree]
    lsh: Optional[RandomHyperplaneLSH]
    packs: PackSlots
    stats: IndexBuildStats

    @classmethod
    def empty(
        cls, intervals: Optional[IntervalTree] = None, lsh: Optional[RandomHyperplaneLSH] = None
    ) -> IndexGeneration:
        """The origin a build or a restore advances from, with (empty)
        candidate structures."""
        return cls(0, {}, {}, {}, (frozenset(), []), intervals, lsh, PackSlots(), IndexBuildStats())

    def holds(self, table_id: str) -> bool:
        """Whether ``table_id`` is a plain table, a stream or a window segment."""
        return table_id in self.encoded or table_id in self.streams

    def entry(self, table_id: str) -> EncodedTable:
        """The entry scored for ``table_id`` — composed for a stream parent."""
        if table_id in self.streams:
            return self.streams[table_id].composed
        if table_id not in self.encoded:
            raise KeyError(f"table {table_id!r} has not been indexed")
        return self.encoded[table_id]

    def segments(self, parent_id: str) -> List[str]:
        """Stream ``parent_id``'s window segments, in order (none if not a stream)."""
        family = self.streams.get(parent_id)
        return list(family.segments) if family is not None else []

    def parents_of(self, found: AbstractSet[str]) -> AbstractSet[str]:
        """``found`` with every window segment id replaced by its stream's."""
        if not self.owner:
            return found
        owner = self.owner.get
        return {owner(table_id, table_id) for table_id in found}

    @property
    def indexed_table_ids(self) -> List[str]:
        """The scorable ids in insertion order: plain tables, then streams."""
        if not self.streams:
            return list(self.encoded)
        return [t for t in self.encoded if t not in self.owner] + list(self.streams)


def _composed(parent_id: str, parts: Sequence[EncodedTable]) -> EncodedTable:
    """The parent-level entry of a stream: per-window representations
    concatenated along the segment axis, ranges merged element-wise.

    Deterministic in the segment contents alone, so an incrementally grown
    stream composes bit-identically to a from-scratch rebuild over the same
    rows (the streaming-parity property).
    """
    names = list(parts[0].column_names)
    for part in parts[1:]:
        if list(part.column_names) != names:
            raise ValueError(
                f"stream {parent_id!r} has segments with mismatched "
                f"columns: {names} vs {list(part.column_names)}"
            )
    representations = np.concatenate([part.representations for part in parts], axis=1)
    ranges = [
        (
            min(float(part.column_ranges[column][0]) for part in parts),
            max(float(part.column_ranges[column][1]) for part in parts),
        )
        for column in range(len(names))
    ]
    return EncodedTable(
        table_id=parent_id,
        representations=representations,
        column_names=names,
        column_ranges=ranges,
        column_embeddings=representations.mean(axis=1),
    )


def _registered(
    generation: IndexGeneration,
    dead: Sequence[str],
    removed: Iterable[str],
    entries: Sequence[EncodedTable],
    streams: Mapping[str, Tuple[Sequence[str], Mapping]],
) -> Tuple[dict, dict, dict]:
    """The registry of the generation after ``generation``: ``(encoded,
    streams, owner)`` without the ``dead`` entries and the ``removed``
    streams, with ``entries`` added and ``streams`` (parent id -> ordered
    segment ids, append state) bound and composed; every other family kept."""
    encoded = dict(generation.encoded)
    for entry_id in dead:
        encoded.pop(entry_id, None)
    encoded.update((entry.table_id, entry) for entry in entries)
    families, owner = dict(generation.streams), dict(generation.owner)
    for parent in chain(removed, streams):
        for segment_id in generation.segments(parent):
            owner.pop(segment_id, None)
        families.pop(parent, None)
    for parent, (segment_ids, state, *_) in streams.items():
        if not segment_ids:
            raise ValueError(f"stream {parent!r} needs at least one segment")
        missing = [s for s in segment_ids if s not in encoded]
        if missing:
            raise KeyError(f"stream {parent!r} references unencoded segment(s) {missing}")
        composed = _composed(parent, [encoded[s] for s in segment_ids])
        families[parent] = StreamFamily(tuple(segment_ids), state, composed)
        owner.update(dict.fromkeys(segment_ids, parent))
    return encoded, families, owner


class FCMScorer:
    """Ranks candidate tables for line chart queries using a trained FCM."""

    #: Number of recently prepared query charts memoised by :meth:`prepare_query`
    #: (each with its score row) — the result cache's default size, so a write,
    #: which empties that cache, re-extracts none of the charts it held.
    QUERY_CACHE_SIZE = 128

    def __init__(
        self,
        model: FCMModel,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.config: FCMConfig = model.config
        self.extractor = VisualElementExtractor()
        # Threads :meth:`index_repository` encodes on; ``None`` sizes it to
        # the host (:func:`repro.nn.compute_threads`).  Not a knob: a shard
        # worker sets 1 (its process already owns a core), tests force it.
        self._encode_threads: Optional[int] = None
        self._kernel = FusedMatchKernel(model.matcher)
        # Concurrent readers change the query LRU and the pack slots each
        # under its own lock, never held across scoring.
        self._preparing = threading.Lock()
        self._filling = threading.Lock()
        #: Where the scorer counts (:data:`SCORER_COUNTS`): the serving
        #: service's registry, or its own when it stands alone.
        self.registry = registry or MetricsRegistry()
        self._counts = {
            name: self.registry.counter(f"repro_{name}_total", help_text)
            for name, help_text in SCORER_COUNTS.items()
        }
        for counter in self._counts.values():
            counter.inc(0)
        # Maps chart *content hash* -> [ChartInput, ScoreRow or None] (see
        # LineChart.fingerprint): equal charts share an entry even when they
        # are distinct objects, and a chart mutated in place hashes to a new
        # key, so entries can never go stale.  Preprocessing is
        # model-independent, so the ChartInput stays valid while the model
        # trains; a row says which weights it was scored under.
        self._query_cache: "OrderedDict[str, list]" = OrderedDict()
        #: The index: one :class:`IndexGeneration`, replaced whole by every
        #: write (:meth:`write`), never edited.
        self.generation: IndexGeneration
        self.write(start=IndexGeneration.empty())

    # ------------------------------------------------------------------ #
    # The index: one generation, advanced by every write
    # ------------------------------------------------------------------ #
    def write(self, start: Optional[IndexGeneration] = None, **changes) -> IndexGeneration:
        """The one write of the index: :meth:`advance` the current generation
        (or ``start``, the empty one for a rebuild) and swap the result in —
        the only assignment of :attr:`generation`.  A write that raises
        swaps nothing in."""
        self.generation = self.advance(self.generation if start is None else start, **changes)
        return self.generation

    def advance(
        self,
        generation: IndexGeneration,
        drop: Iterable[str] = (),
        tables: Iterable[Table] = (),
        entries: Optional[Iterable[EncodedTable]] = None,
        rows: Optional[Tuple[np.ndarray, np.ndarray, Sequence[str], Sequence[str]]] = None,
        streams: Optional[Mapping[str, Tuple[Sequence[str], Mapping]]] = None,
        batch_size: Optional[int] = None,
    ) -> IndexGeneration:
        """The generation after ``generation`` once a write is applied,
        ``generation`` itself unchanged.

        * ``drop``: each scorable id goes with all it holds (a stream: its
          windows and family); a window segment goes only in the write that
          rebinds its stream; other ids are ignored.
        * ``tables`` no entry holds the id of after the drops (each id's
          first) are encoded (chunked as :meth:`index_repository`), or taken
          from ``entries`` (a sharded build's, a snapshot's); their interval
          rows are ``table_bounds`` of ``tables``, or ``rows``.
        * ``streams``: parent id -> (ordered segment ids, append state).

        What the write did not touch is shared by reference: entries,
        families, interval arrays, LSH buckets, pack buckets
        (:meth:`_carry_packs`).
        """
        streams = streams or {}
        held = generation.scorable[0]
        rebound = {s for parent in streams for s in generation.segments(parent)}
        removed: Dict[str, None] = {}
        dead: List[str] = []
        for table_id in drop:
            if table_id in held and table_id not in removed:
                removed[table_id] = None
                dead.extend(generation.segments(table_id) or [table_id])
            elif table_id in rebound:
                dead.append(table_id)
        gone = {*dead, *removed}

        def free(table_id: str) -> bool:
            return table_id in gone or not generation.holds(table_id)

        fresh = [t for t in _first_by_id(tables) if free(t.table_id)]
        threads = 0
        if entries is None:
            entries, threads = self._encode(fresh, batch_size)
            added = [t.table_id for t in fresh]
        else:  # a sharded merge names its tables, a restore only its entries
            entries = [e for e in _first_by_id(entries) if free(e.table_id)]
            added = [t.table_id for t in fresh or entries]
        encoded, families, owner = _registered(generation, dead, removed, entries, streams)
        touched = {*gone, *(entry.table_id for entry in entries), *streams}
        for parent, (segment_ids, *_) in streams.items():  # windows that joined or left
            touched.update(set(generation.segments(parent)).symmetric_difference(segment_ids))
        ids = generation.scorable
        if any((t in held) != (t in families or t in encoded and t not in owner) for t in touched):
            ordered = sorted(chain((t for t in encoded if t not in owner), families))
            ids = (frozenset(ordered), ordered)

        intervals, lsh = generation.intervals, generation.lsh
        start = time.perf_counter()
        if intervals is not None:
            intervals = intervals.advanced(dead, tables=fresh, rows=rows)
        interval_seconds, start = time.perf_counter() - start, time.perf_counter()
        if lsh is not None:
            lsh = lsh.advanced(
                dead, [e.table_id for e in entries], [e.column_embeddings for e in entries]
            )
        lsh_seconds = time.perf_counter() - start
        stats = IndexBuildStats(
            interval_seconds, lsh_seconds, len(ids[0]), threads, added, list(removed)
        )
        advanced = IndexGeneration(
            next(_NUMBERS), encoded, families, owner, ids, intervals, lsh, PackSlots(), stats
        )
        self._carry_packs(generation.packs, advanced, touched)
        return advanced

    def _carry_packs(
        self, held: PackSlots, generation: IndexGeneration, touched: AbstractSet[str]
    ) -> None:
        """Fill ``generation``'s pack slots from ``held``, its predecessor's:
        each held pack keeps every row but the ``touched`` ids' — rows of ids
        that left go, new and touched ids are projected and spliced in (in
        the held order, no id walked, when none entered or left the pack's
        universe) — so it equals a from-scratch build over the same entries,
        array for array (:func:`~repro.fcm.fastpath.update_exact_pack`).
        A read filling a slot of ``held`` finishes first, so its pack is
        carried rather than built again for ``generation``."""
        kernel, slots = self._fused_kernel(), generation.packs
        with self._filling:
            slots.version, packs = held.version, (held.exact, held.coarse)
        for name, pack, member, universe, entries in (
            ("exact", packs[0], generation.scorable[0].__contains__,
             lambda: generation.scorable[1], self._pack_entries),
            ("coarse", packs[1], generation.holds,
             lambda: sorted(chain(generation.encoded, generation.streams)), self._coarse_entries),
        ):
            if pack is None:
                continue
            index = pack.index
            if any((table_id in index) != member(table_id) for table_id in touched):
                ids = universe()
                fresh = [t for t in ids if t in touched or t not in index]
            else:
                ids, fresh = None, sorted(filter(index.__contains__, touched))
            if fresh or ids is not None:
                pack = update_exact_pack(kernel, pack, ids, entries(fresh, generation))
                if name == "exact":
                    self._counts["exact_pack_rows_projected"].inc(len(fresh))
                    pack = _with_scan_plan(pack)
            setattr(slots, name, pack)

    # ------------------------------------------------------------------ #
    # Table encoding
    # ------------------------------------------------------------------ #
    def index_table(self, table: Table) -> EncodedTable:
        """Encode ``table`` once and index the result: :meth:`index_repository`
        over the one table."""
        self.index_repository([table])
        return self.encoded_table(table.table_id)

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
        """Encode every table in the repository not indexed yet and index
        it, in one write (:meth:`write`); returns the threads the chunks were
        encoded on (0: nothing to encode).

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
        table only when its entry is made (:meth:`_encode_chunk`).  A table's
        encoding is bitwise independent of the tables chunked with it, and
        within 1e-12 (float64) of the per-table :meth:`FCMModel.encode_table`.

        Chunks are encoded on as many threads as the host has cores to spare
        (:func:`repro.nn.compute_threads`: usable cores ÷ BLAS threads, so
        only when BLAS is pinned — ``OPENBLAS_NUM_THREADS=1`` — and never more
        than there are chunks), this thread among them, and always collected
        here in input order: the entries, their order and every pack built
        from them are those of one thread encoding chunk after chunk, bit
        for bit (:meth:`_encode`).  A chunk that fails fails the
        write: the index stays as it was.

        Example
        -------
        >>> scorer = FCMScorer(model)
        >>> scorer.index_repository(repository)          # chunked batch build
        >>> scorer.rank(chart, k=5)                      # uses the same index
        """
        return self.write(tables=repository, batch_size=batch_size).stats.encode_threads

    def _encode_chunk(self, tables: Sequence[Table]) -> List[EncodedTable]:
        """Prepare and encode one chunk, one entry per table:
        :meth:`FCMModel.encode_table_batch` graph-free, DA folded, each group
        one array until its column means are taken."""
        batch = prepare_table_inputs(tables, self.config)
        for table_id, names in zip(batch.table_ids, batch.column_names):
            if not names:
                raise ValueError(f"table {table_id!r} has no columns to encode")
        encoded = [self.model.dataset_encoder.array_forward(group) for group in batch.groups]
        means = [group.mean(axis=1) for group in encoded]
        lows = [group.tolist() for group in batch.lows]
        highs = [group.tolist() for group in batch.highs]
        # Copies: an entry holding views would pin the whole group in memory.
        return [
            EncodedTable(
                table_id=table_id,
                representations=encoded[group][start:stop].copy(),
                column_names=names,
                column_ranges=list(zip(lows[group][start:stop], highs[group][start:stop])),
                column_embeddings=means[group][start:stop].copy(),
            )
            for table_id, names, (group, start, stop) in zip(
                batch.table_ids, batch.column_names, batch.slots
            )
        ]

    def _encode(
        self, tables: Sequence[Table], batch_size: Optional[int]
    ) -> Tuple[List[EncodedTable], int]:
        """The entries of ``tables``, in order, and the threads they were
        encoded on (0: no table): chunks of ``batch_size`` (as in
        :meth:`index_repository`) encoded on that many threads, this one
        among them, and collected on this one in input order.

        Every thread takes the next chunk from one shared cursor when it has
        finished its last, so at most one chunk per thread is in flight
        (NumPy releases the GIL inside the encoder's products).  A finished
        chunk waits, as its copied encodings, until every chunk before it is
        collected.  A chunk that raises stops the cursor, and its error is
        raised here after every helper thread has exited.  With
        ``threads == 1`` no helper starts and this thread encodes chunk
        after chunk; any count returns the same entries and raises the same
        error at the same chunk.
        """
        if not tables:
            return [], 0
        if batch_size is None:
            batch_size = self.INDEX_BATCH_SIZE
        chunk = len(tables) if batch_size <= 0 else max(1, int(batch_size))
        chunks = [tables[start : start + chunk] for start in range(0, len(tables), chunk)]
        threads = min(len(chunks), self._encode_threads or compute_threads())
        _recycle_freed_blocks()
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
        entries: List[EncodedTable] = []
        try:
            for number in range(len(chunks)):
                while number not in finished and encode_next():
                    pass
                with turn:
                    turn.wait_for(lambda: number in finished)
                result = finished.pop(number)
                if isinstance(result, BaseException):
                    raise result
                entries.extend(result)
        finally:
            with turn:
                stopped = True
            for thread in helpers:
                thread.join()
        return entries, threads

    # ------------------------------------------------------------------ #
    # Reading the current generation
    # ------------------------------------------------------------------ #
    @property
    def streams(self) -> Dict[str, List[str]]:
        """Parent id -> ordered segment ids for every streaming table."""
        return {parent: list(family.segments) for parent, family in self.generation.streams.items()}

    @property
    def indexed_table_ids(self) -> List[str]:
        """The scorable ids: plain tables plus stream parents (scored through
        their composed entries), never a stream's internal segment ids."""
        return self.generation.indexed_table_ids

    def cache_nbytes(self) -> int:
        """Total bytes of the indexed encoding arrays (reps + column
        embeddings, composed stream parents included) plus the exact pack,
        when one is built.

        Counts array payloads only (not Python-object overhead).  Note that
        for memory-mapped entries this is the *mapped* size, not resident
        memory: untouched pages cost address space, no RAM — which is the
        point of ``ServingConfig(mmap_index=True)``.  The exact pack is
        always private heap.
        """
        generation = self.generation
        return self.exact_pack_nbytes + sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in chain(
                generation.encoded.values(), (f.composed for f in generation.streams.values())
            )
        )

    def encoded_table(self, table_id: str) -> EncodedTable:
        """The indexed entry for ``table_id`` — composed for stream parents
        (:meth:`IndexGeneration.entry`); ``KeyError`` if there is none."""
        return self.generation.entry(table_id)

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
        with self._preparing:
            hit = self._query_cache.get(key)
            if hit is not None:
                self._query_cache.move_to_end(key)
                return hit[0]
        with span("prepare_query"):
            elements = self.extractor.extract(chart)
            chart_input = prepare_chart_input(chart, elements, self.config)
            chart_input.key = key
        with self._preparing:  # a reader that prepared the chart meanwhile wins
            entry = self._query_cache.setdefault(key, [chart_input, None])
            self._query_cache.move_to_end(key)
            while len(self._query_cache) > self.QUERY_CACHE_SIZE:
                self._query_cache.popitem(last=False)
        return entry[0]

    def encode_query(self, chart_input: ChartInput) -> np.ndarray:
        """The chart encoder's ``(M, N1, K)`` output for a prepared query.

        LSH lookup, the coarse pass and verification all start from this
        array; :meth:`HybridQueryProcessor.query
        <repro.index.hybrid.HybridQueryProcessor.query>` computes it once and
        hands it to each of them as ``chart_repr``.
        """
        with span("encode_chart"):
            return self.model.chart_encoder.array_forward(chart_input.segment_features)

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
        generation = self.generation
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else generation.indexed_table_ids
        scores: Dict[str, float] = {}
        with self.model.inference():
            chart_repr = self.model.encode_chart(chart_input)
            for table_id in ids:
                encoded = generation.entry(table_id)
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
        generation = self.generation
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else generation.indexed_table_ids
        scores = self._score_ids(chart_input, ids, batch_size, fused, generation=generation)
        return dict(zip(ids, scores.tolist()))

    def _fused_kernel(self) -> Optional[FusedMatchKernel]:
        """The per-scorer fused kernel, or ``None`` for unsupported matchers."""
        return self._kernel if self._kernel.supported else None

    # ------------------------------------------------------------------ #
    # Exact pack: table-side projections for exact verification
    # ------------------------------------------------------------------ #
    @property
    def exact_pack_nbytes(self) -> int:
        """Bytes the current generation's exact pack holds (``0`` while none
        is built); the HTTP tier exports it as ``repro_exact_pack_bytes``."""
        pack = self.generation.packs.exact
        return pack.nbytes if pack is not None else 0

    def _pack_entries(self, sorted_ids: Iterable[str], generation: IndexGeneration) -> List[tuple]:
        """The :func:`build_exact_pack` input rows for ``sorted_ids``."""
        entry = generation.entry
        return [
            (encoded.table_id, encoded.representations, encoded.column_ranges)
            for encoded in map(entry, sorted_ids)
        ]

    def exact_pack(self, generation: Optional[IndexGeneration] = None) -> ExactPack:
        """The HCMAN key/value projections of every scorable entry (plain
        tables + composed stream parents) of ``generation`` (default: the
        current one).

        Built from scratch (``repro_exact_pack_builds_total``) by the first
        exact scan of more than one batch that finds the slot empty, then
        carried from generation to generation by :meth:`advance`, which
        re-projects the written rows alone; rebuilt when the matcher's
        projection weights no longer equal the copy it was projected under.
        ``repro_exact_pack_rows_projected_total`` counts every row projected
        either way.  Raises ``RuntimeError`` for matchers without a fused
        HCMAN kernel.
        """
        return self._filled(generation or self.generation, "exact")[1]

    def coarse_pack(self, generation: Optional[IndexGeneration] = None) -> ExactPack:
        """The pre-filter's pack of ``generation`` (default: the current
        one): one entry per scorable id and per stream segment (subscriptions
        pre-filter dirty windows), each the entry's
        :func:`~repro.fcm.fastpath.coarse_rows` at ``PREFILTER_DTYPE`` with
        every column range open, so the y-tick filter keeps every column.
        Built and carried like :meth:`exact_pack`, over its own universe:
        a write re-pools and re-projects exactly the ids it wrote, and the
        pack equals a from-scratch build over the same entries, array for
        array.  Raises ``RuntimeError`` for matchers without a fused HCMAN
        kernel.
        """
        return self._filled(generation or self.generation, "coarse")[1]

    def _coarse_entries(self, ids: Sequence[str], generation: IndexGeneration) -> List[tuple]:
        """The :func:`update_exact_pack` input rows of the coarse pack."""
        entry = generation.entry
        reps = [entry(table_id).representations for table_id in ids]
        return [
            (table_id, rows, [(-np.inf, np.inf)] * len(rows))
            for table_id, rows in zip(ids, coarse_rows(reps, PREFILTER_DTYPE))
        ]

    def _filled(
        self, generation: IndexGeneration, name: str
    ) -> Tuple[FusedMatchKernel, ExactPack, int]:
        """The fused kernel, ``generation``'s ``name`` pack (``"exact"`` or
        ``"coarse"``) and the weights version it is current under, after the
        one weights check of a pack read: :meth:`FusedMatchKernel.weights_version`,
        and only when it moved since the slots were last checked, each held
        pack's frozen projection weights against the live ones — a pack they
        no longer equal is dropped, freed before its replacement is built.
        Either read settles both.  Check and build hold the scorer's fill
        lock, so however many readers find a slot empty, it is built once."""
        kernel = self._fused_kernel()
        if kernel is None:
            raise RuntimeError("the exact and coarse packs need the fused HCMAN kernel")
        slots = generation.packs
        with self._filling:
            version = kernel.weights_version()
            if version != slots.version:  # a parameter moved: a projection one?
                current = kernel.projections_current
                if slots.exact is not None and not current(slots.exact.weights):
                    slots.exact = None
                if slots.coarse is not None and not current(slots.coarse.weights):
                    slots.coarse = None
                slots.version = version
            pack = getattr(slots, name)
            if pack is None and name == "exact":
                ids = generation.scorable[1]
                pack = _with_scan_plan(build_exact_pack(kernel, self._pack_entries(ids, generation)))
                self._counts["exact_pack_builds"].inc()
                self._counts["exact_pack_rows_projected"].inc(len(ids))
            elif pack is None:
                ids = sorted(chain(generation.encoded, generation.streams))
                pack = build_exact_pack(kernel, self._coarse_entries(ids, generation))
            setattr(slots, name, pack)
        return kernel, pack, version

    def _positions(
        self, ids: Sequence[str], pack: ExactPack, generation: IndexGeneration
    ) -> Optional[np.ndarray]:
        """The positions of ``ids`` in ``pack`` (``KeyError`` naming the
        first id it does not hold), or ``None`` when they name every row in
        order — a full scan: ``generation``'s own sorted scorable list
        against a pack of that many rows, recognised by identity, or any
        list found in order."""
        rows = len(pack.index)
        if len(ids) == rows and ids is generation.scorable[1]:
            return None
        positions = np.fromiter(map(pack.index.__getitem__, ids), dtype=np.int64, count=len(ids))
        if len(ids) == rows and np.array_equal(positions, np.arange(rows)):
            return None
        return positions

    def _score_from_pack(
        self,
        kernel: FusedMatchKernel,
        chart_input: ChartInput,
        chart_repr: np.ndarray,
        ids: Sequence[str],
        chunk: int,
        pack: Optional[ExactPack],
        generation: IndexGeneration,
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
        scan*: ``generation``'s own sorted scorable list is one by identity and
        runs on the pack's own plan — no set algebra, no position lookup, no
        sort; any other list is found one by :meth:`_positions`.  A full
        scan by a chart the query LRU holds leaves a :class:`ScoreRow`
        there, and its next one, if a write came between, re-runs only the
        kernel calls that write reached (:meth:`_carried_scores`).
        """
        full = pack is None and len(ids) > chunk and ids is generation.scorable[1]
        source, positions, version = ("cached" if full else "shared"), None, None
        if pack is None and not full:
            wanted = set(ids)
            cached = len(ids) > chunk and wanted <= generation.scorable[0]
            source = "cached" if cached else "fresh"
        with span("verify_exact", tables=len(ids), projections=source) as sp:
            if source == "fresh":
                pack = self._transient_pack(sorted(wanted), generation)
            elif pack is None:
                kernel, pack, version = self._filled(generation, "exact")
            if not full:
                positions = self._positions(ids, pack, generation)
                if positions is None and source != "cached":  # no scan plan
                    positions = np.arange(len(ids))
                full = positions is None
            if sp is not None:  # what the position lookup found
                sp.attributes["scan"] = "full" if full else "subset"
            held = self._query_cache.get(chart_input.key) if full else None
            carried = self._carried_scores(held, pack, chart_repr, version)
            if carried is not None:
                rerun = int(carried[1].sum())
                reused = len(carried[1]) - rerun
                self._counts["score_rows_repaired"].inc()
                self._counts["score_row_calls_reused"].inc(reused)
                self._counts["score_row_calls_rerun"].inc(rerun)
                if sp is not None:
                    sp.attributes.update(scan="repair", reused=reused, rerun=rerun)
            tol = self.config.column_filter_tolerance
            scores = exact_pack_scores(
                kernel, pack, chart_repr, positions, chart_input.y_range, tol, carried
            )
            if held is not None:
                plan = (pack.generation, pack.index, pack.signature)
                held[1] = ScoreRow(scores.copy(), chart_repr.copy(), version, *plan)
            return scores

    def _carried_scores(
        self, held: Optional[list], pack: ExactPack, chart_repr: np.ndarray, version: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:func:`exact_pack_scores`' ``carried`` for a full scan of ``pack``
        by the chart of LRU entry ``held``: its row's scores at today's
        positions and, per kernel call, whether it must run again — it holds
        a row that is new or was re-projected since, or one that no longer
        sits at the same offset of a batch of the same size and padded shape.
        Any other call would compute, bit for bit, what the row holds.
        ``None`` when there is nothing to carry: no row, no write since it
        (the same scan again is a scan), a matcher parameter moved since
        (``version``, the weights version :meth:`_filled` has just
        settled the pack under), another encoding."""
        row = held[1] if held is not None else None
        if (
            row is None
            or row.generation == pack.generation
            or row.weights != version
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

    def _transient_pack(
        self, ids: Sequence[str], generation: IndexGeneration
    ) -> Optional[ExactPack]:
        """A pack of exactly ``ids`` (segment ids too) to pass as
        :meth:`_score_ids`' ``pack``; ``None`` without a fused kernel."""
        kernel = self._fused_kernel()
        if kernel is None:
            return None
        return build_exact_pack(kernel, self._pack_entries(ids, generation))

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

        Every listed table id must already be indexed (:meth:`index_repository`
        / :meth:`write`); unknown ids raise
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
        generation: Optional[IndexGeneration] = None,
    ) -> np.ndarray:
        """:meth:`score_encoded_batch` as a float64 array aligned with
        ``ids`` — what the query processor and the subscription engine rank
        from.  ``ids`` is read, never copied, so the generation's own sorted
        scorable list is recognised as a full scan; ``pack`` is a
        :meth:`_transient_pack` holding every id of ``ids``.  Every id is
        scored against ``generation`` (read once here when not given), the
        one the caller took its ids from."""
        if not len(ids):
            return np.empty(0, dtype=np.float64)
        generation = generation or self.generation
        kernel = None if fused is False else self._fused_kernel()
        chunk = len(ids) if not batch_size else max(1, int(batch_size))
        if chart_repr is None:
            chart_repr = self.encode_query(chart_input)
        if kernel is not None:
            return self._score_from_pack(
                kernel, chart_input, chart_repr, ids, chunk, pack, generation
            )
        y_range = chart_input.y_range
        selected = [self._select_columns(generation.entry(t), y_range) for t in ids]
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
        generation: Optional[IndexGeneration] = None,
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
        :meth:`score_encoded_batch`, ``generation`` as in :meth:`_score_ids`.
        A list naming every row of the coarse pack in order is a full scan
        (:meth:`_positions`).
        """
        ids = list(table_ids)
        if keep >= len(ids):
            return ids
        generation = generation or self.generation
        if chart_repr is None:
            chart_repr = self.encode_query(chart_input)
        kernel = self._fused_kernel()
        if kernel is not None:
            # The coarse pass only ranks for the overscan cut, so it runs at
            # PREFILTER_DTYPE (float32) with native-dtype accumulation even
            # under a float64 session — the exact re-score of the survivors
            # restores full precision.  Every coarse column range is open, so
            # the y-tick filter keeps every column.
            pack = self.coarse_pack(generation)
            scores = exact_pack_scores(
                kernel,
                pack,
                chart_repr.astype(PREFILTER_DTYPE, copy=False),
                self._positions(table_ids, pack, generation),
                chart_input.y_range,
                self.config.column_filter_tolerance,
                exact=False,
            )
        else:
            reps = [generation.entry(table_id).representations for table_id in ids]
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


def build_scorer_for_repository(model: FCMModel, repository: DataRepository) -> FCMScorer:
    """Create a scorer and pre-index the whole repository."""
    scorer = FCMScorer(model)
    scorer.index_repository(repository)
    return scorer
