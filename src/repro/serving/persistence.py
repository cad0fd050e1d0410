"""Index snapshots: save/load everything a restarted service needs.

A snapshot is a **base** plus zero or more numbered **append segments**
next to it.  Per-table state has exactly one on-disk encoding — the
flat-array codec, :func:`_encode` / :func:`_decode` — and both kinds of
file use it; they differ only in where the flat arrays live.

The codec
---------
A set of tables is stored as a handful of *metadata arrays* (``table_ids``,
``fingerprints``, ``rep_offsets``, ``rep_shapes``, ``colemb_offsets``,
``column_offsets``, ``column_names``, ``column_ranges`` and the three
``interval_*`` arrays) that index into two *flat arrays*: ``reps`` (every
table's cached dataset-encoder representations, concatenated — the
expensive part, the reason a restart should not re-encode anything) and
``colemb`` (the per-column embeddings, stored so a mapped load never touches
the representation pages just to take a mean).  Nothing derived from those
two is stored: the pre-filter's int8 rows are computed from ``reps`` when
the coarse pack first projects them, and a restore rehashes the LSH codes
from ``colemb`` in one product, so an index with any ``LSHConfig.num_bits``
saves.  Everything per-table is an array member, so the JSON ``__meta__``
entry stays O(1): loading the metadata of a 10⁵-table snapshot is a few
C-speed array reads, not one giant ``json.loads``.  The decoder checks every
recorded shape (no zero dimension, width ``embed_dim``), every offset
against the flat arrays, every flat array's dtype against the recorded
precision and every interval row (no NaN bound, ``low <= high``, naming a
table the file records) in whole-array passes, then builds each table's
:class:`EncodedTable` in one loop — views into the flat arrays, the recorded
fingerprint attached.  A load hands those entries to the scorer, their ids
to the LSH (one stacked hash) and to the registry in one call each, and the
interval bound columns straight to :meth:`IntervalTree.from_arrays`.

Files
-----
* **Base** — ``<stem>.npz`` holds ``__meta__`` (version, generation,
  embedding dimension, dtype, LSH configuration, the streaming registry,
  the sidecar file names and element counts) and the metadata arrays; the
  two flat arrays are spilled to ``<stem>.gNNNN.<kind>.npy`` sidecars.
  ``load_processor(..., mmap=True)`` opens the sidecars with
  ``np.load(mmap_mode="r")`` and hands every base table zero-copy read-only
  *views*, so the index lives in the kernel page cache, shared by every
  process that maps it.  ``gNNNN`` is a generation token: a rewrite lands
  complete, fsynced sidecars under a fresh generation *before* the base
  archive is atomically replaced (the commit point), so a crash at any
  moment leaves the old or the new base referencing complete, matching
  sidecars; stale generations — of any kind, including kinds this build no
  longer writes — are deleted only after the commit.
* **Append segment** — ``<stem>.seg-NNNN.npz`` holds the very same metadata
  arrays *and* the two flat arrays inline for the tables added (or
  re-added with new content) since the previous save, plus, in
  ``__meta__``, a ``tombstones`` list of removed ids and the full streaming
  registry (last writer wins on replay).  Segment tables therefore restore
  with their column embeddings bit-identical to the saving scorer's.  An
  ``.npz`` cannot be memory-mapped, so segment tables always load as
  copies — deltas are small by construction.

Every file is written to a sibling temp file, fsynced, renamed over its
target and the directory fsynced, so neither a crash nor a power loss can
commit a truncated base, sidecar or segment.

Append and compaction
---------------------
``save_processor(processor, path, append=True)`` never rewrites the base:
it reads only the id and fingerprint arrays of the base and of each
existing segment (lazy ``.npz`` access — the encodings stay on disk), diffs
them against the live processor and writes just the delta as the next
numbered segment; an empty delta writes nothing.  It **writes** O(delta)
bytes; to detect a table removed and re-added under the same id with
different content it compares every live encoding's content hash with the
recorded one, and an encoding is hashed once in its life
(``EncodedTable.fingerprint``), so after the first snapshot the diff reads
O(index) memoised strings and hashes only the delta.
:func:`load_processor` replays segments in order (tombstones
first, then additions).  :func:`compact_snapshot` folds base + segments
into a fresh base and then deletes the segments; replay is idempotent, so a
crash between the rewrite and the deletes cannot corrupt the snapshot.  A
*full* ``save_processor`` to a path that has segments deletes them: the new
base supersedes the whole lineage.

What is rejected
----------------
Files written before the flat-array codec became the only format — v1
single-archive bases, ``rep_<i>`` segments, v2 bases — record an older
``version`` and fail with a :class:`SnapshotError` naming the file, the
version found and the remedy: rebuild the index and save it again.  There is
no migration path.  Version-3 files that also carry derived arrays — the
LSH codes, an int8 copy of ``reps`` and its scales, written before those
were dropped — load as they are: the extra sidecars and members are never
opened, and the next rewrite of the base deletes those sidecars.  The
reverse does not hold: a build that expects those arrays refuses a file
written by this one.

Loading checks the model's embedding dimension *and numeric precision*
against the snapshot so a service cannot silently serve encodings produced
by an incompatible model.  Unlike model checkpoints (which load-and-cast,
see :mod:`repro.nn.serialization`), a dtype-mismatched snapshot is an
**error**: cached encodings and rankings were all produced under the
recorded precision.  The same rule holds *within* a lineage — appending
a segment under a different precision, embedding dimension or LSH
configuration than the base (or loading such a mix) raises ``ValueError``.

Corruption is reported as :class:`SnapshotError` (a ``ValueError``
subclass): a truncated archive, a missing or short sidecar, a missing
member, a table shape no encoder produces, metadata pointing past the end of
a flat array or an interval row that is not a ``[low, high]`` range of a
recorded table all fail with a message naming the file, never a raw
NumPy/zipfile exception or ``KeyError``.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from itertools import compress
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..fcm.model import FCMModel
from ..fcm.scorer import EncodedTable, FCMScorer
from ..index.hybrid import HybridQueryProcessor
from ..index.interval_tree import Interval, IntervalTree
from ..index.lsh import LSHConfig
from ..obs import get_logger

_log = get_logger("repro.serving.persistence")

PathLike = Union[str, Path]

#: The one snapshot format version this build writes and reads.  1 and 2
#: were the single-archive and the first sidecar layouts; files recording
#: them are rejected (see the module docstring).
SNAPSHOT_VERSION = 3

#: Segment file name pattern: ``<base stem>.seg-<number>.npz`` next to the base.
_SEGMENT_SUFFIX = ".seg-{number:04d}.npz"
_SEGMENT_RE = re.compile(r"\.seg-(\d+)\.npz$")

#: The codec's flat arrays — a base's sidecars (``<base stem>.g<generation>.
#: <kind>.npy``), a segment's inline members — both at the recorded dtype.
_FLAT_KINDS = ("reps", "colemb")
#: A sidecar of any kind, so a rewrite also collects the sidecars of kinds
#: older builds wrote and this one no longer does.
_SIDECAR_RE = re.compile(r"\.g(\d+)\.(\w+)\.npy$")

#: ``__meta__`` fields every base and segment must record.
_HEADER_FIELDS = ("embed_dim", "dtype", "lsh", "streams")


class SnapshotError(ValueError):
    """A snapshot file is missing, truncated, too old or structurally corrupt.

    Subclasses ``ValueError`` so callers that already guard snapshot loads
    with ``except ValueError`` keep working; new code can catch
    ``SnapshotError`` to distinguish on-disk damage (restore from backup,
    rebuild the index) from configuration mismatches (wrong model/dtype),
    which stay plain ``ValueError``.
    """


# --------------------------------------------------------------------------- #
# Archive plumbing
# --------------------------------------------------------------------------- #
def _resolve_snapshot_path(path: PathLike) -> Path:
    """Resolve ``path`` to the on-disk archive (``np.savez`` appends .npz)."""
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _canonical_base(path: PathLike) -> Path:
    """The base archive path a write will land on (always ``.npz``)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _atomic_write(path: Path, write: Callable) -> Path:
    """Write ``path`` durably and atomically via a sibling temp file.

    ``write(handle)`` fills the temp file, which is fsynced *before* the
    rename and the directory *after* it: a crash or power loss leaves the
    target with its previous content or the complete new one, never a
    truncated or empty file under the final name.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp" + path.suffix)
    with open(tmp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path


def _write_archive(path: Path, meta: dict, arrays: Dict[str, np.ndarray]) -> Path:
    """Durably write a base or segment archive (see :func:`_atomic_write`)."""
    arrays = dict(arrays)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    return _atomic_write(
        _canonical_base(path), lambda handle: np.savez(handle, **arrays)
    )


def _open_npz(path: Path):
    """``np.load`` with unreadable archives mapped to :class:`SnapshotError`."""
    if not path.exists():
        raise SnapshotError(f"no snapshot archive at {path}")
    try:
        return np.load(path)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise SnapshotError(
            f"snapshot archive {path.name} is unreadable — truncated or corrupt "
            f"({exc}); restore it from a backup or rebuild the index"
        ) from exc


def _archive_member(archive, name: str, path: Path) -> np.ndarray:
    try:
        return archive[name]
    except KeyError as exc:
        raise SnapshotError(
            f"snapshot archive {path.name} has no {name!r} entry — the archive "
            f"is incomplete or not a repro snapshot"
        ) from exc
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise SnapshotError(
            f"snapshot archive {path.name} is corrupt: entry {name!r} cannot be "
            f"read ({exc})"
        ) from exc


def _decode_meta(raw: np.ndarray, path: Path) -> dict:
    try:
        return json.loads(bytes(raw).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot archive {path.name} has a corrupt __meta__ entry ({exc})"
        ) from exc


def _read_meta(path: Path) -> dict:
    """Only the JSON ``__meta__`` entry (the arrays stay on disk)."""
    with _open_npz(path) as archive:
        return _decode_meta(_archive_member(archive, "__meta__", path), path)


def _read_members(
    path: Path, names: Sequence[str], base_meta: Optional[dict] = None
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``__meta__`` and the members ``names`` of one base or segment.

    The header is validated first (as a segment of ``base_meta`` when
    given), so a file from an older format fails on its version, not on a
    missing member.  Nothing else is read (lazy ``.npz`` access): an
    append's diff leaves the encodings on disk, and members this build does
    not use — the derived arrays older builds wrote — are never opened.
    """
    with _open_npz(path) as archive:
        meta = _decode_meta(_archive_member(archive, "__meta__", path), path)
        if base_meta is None:
            _check_header(meta, path)
        else:
            _check_segment(meta, base_meta, path)
        return meta, {name: _archive_member(archive, name, path) for name in names}


def _check_header(
    meta: dict, path: Path, fields: Sequence[str] = _HEADER_FIELDS
) -> None:
    """The single version gate: anything but the current format is refused."""
    version = meta.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version!r} in {path.name}: this "
            f"build reads only version {SNAPSHOT_VERSION} (the flat-array "
            f"codec) and does not migrate files written by older code — "
            f"rebuild the index and save it again"
        )
    missing = [name for name in fields if name not in meta]
    if missing:
        raise SnapshotError(
            f"snapshot archive {path.name} is corrupt: __meta__ records no "
            f"{missing[0]!r} field"
        )


def _check_lineage(what: str, meta: dict, base_meta: dict) -> None:
    """A segment — recorded, or about to be appended — must match its base."""
    if meta["embed_dim"] != base_meta["embed_dim"]:
        raise ValueError(
            f"{what} has embed_dim={meta['embed_dim']}, the base snapshot was "
            f"built with embed_dim={base_meta['embed_dim']}"
        )
    if meta["dtype"] != base_meta["dtype"]:
        raise ValueError(
            f"{what} runs dtype={meta['dtype']}, the base snapshot records "
            f"dtype={base_meta['dtype']}; a snapshot lineage must be "
            f"single-precision — write a fresh base under {meta['dtype']}, or "
            f"rebuild / re-append under {base_meta['dtype']}"
        )
    if meta["lsh"] != base_meta["lsh"]:
        raise ValueError(
            f"{what} uses LSH configuration {meta['lsh']}, the base snapshot "
            f"records {base_meta['lsh']}; a restore hashes every table under "
            f"the base's hyperplanes, so a lineage keeps one configuration — "
            f"write a fresh base"
        )


def _check_segment(meta: dict, base_meta: dict, path: Path) -> None:
    _check_header(meta, path, _HEADER_FIELDS + ("tombstones",))
    if meta.get("kind") != "segment":
        raise ValueError(f"{path.name} is not a snapshot segment")
    _check_lineage(f"segment {path.name}", meta, base_meta)


def snapshot_segments(path: PathLike) -> List[Path]:
    """The append-only segments of a snapshot, in replay order.

    Segments live next to the base as ``<base stem>.seg-<number>.npz`` and
    are replayed in ascending number; a base with no segments returns ``[]``.
    """
    base = _resolve_snapshot_path(path)
    numbered = []
    for candidate in base.parent.glob(base.stem + ".seg-*.npz"):
        match = _SEGMENT_RE.search(candidate.name)
        if match and candidate.name == base.stem + match.group(0):
            numbered.append((int(match.group(1)), candidate))
    return [segment for _, segment in sorted(numbered)]


# --------------------------------------------------------------------------- #
# Base sidecars
# --------------------------------------------------------------------------- #
def _sidecar_path(base: Path, generation: int, kind: str) -> Path:
    return base.parent / f"{base.stem}.g{generation:04d}.{kind}.npy"


def _sidecar_files(base: Path) -> List[Tuple[int, Path]]:
    found = []
    for candidate in base.parent.glob(base.stem + ".g*.npy"):
        match = _SIDECAR_RE.search(candidate.name)
        if match and candidate.name == base.stem + match.group(0):
            found.append((int(match.group(1)), candidate))
    return found


def _cleanup_sidecars(base: Path, keep_generation: int) -> None:
    """Delete sidecar generations the base no longer references (best-effort)."""
    removed = 0
    for generation, candidate in _sidecar_files(base):
        if generation == keep_generation:
            continue
        try:
            candidate.unlink()
            removed += 1
        except OSError:
            pass  # a mapped-but-deleted file stays readable; leftovers are inert
    if removed:
        _log.info(
            "sidecars_collected",
            base=str(base),
            removed=removed,
            kept_generation=keep_generation,
        )


def _next_generation(base: Path) -> int:
    current = 0
    if base.exists():
        try:
            current = int(_read_meta(base).get("generation", 0))
        except (SnapshotError, TypeError, ValueError):
            current = 0
    for generation, _ in _sidecar_files(base):
        current = max(current, generation)
    return current + 1


def _open_sidecar(base: Path, meta: dict, kind: str, mmap: bool) -> np.ndarray:
    info = (meta.get("sidecars") or {}).get(kind)
    if not info:
        raise SnapshotError(
            f"{base.name} records no {kind!r} sidecar — the snapshot metadata "
            f"is corrupt"
        )
    path = base.parent / str(info["file"])
    if not path.exists():
        raise SnapshotError(
            f"snapshot sidecar {info['file']} is missing next to {base.name}; "
            f"a snapshot is the base archive plus its .npy sidecars — copy "
            f"or restore them together, or rebuild the index"
        )
    try:
        flat = np.load(path, mmap_mode="r" if mmap else None)
    except (ValueError, OSError, EOFError) as exc:
        raise SnapshotError(
            f"snapshot sidecar {path.name} is unreadable — truncated or "
            f"corrupt ({exc}); restore it from a backup or rebuild the index"
        ) from exc
    expected = int(info["elements"])
    if flat.ndim != 1 or int(flat.shape[0]) != expected:
        raise SnapshotError(
            f"snapshot sidecar {path.name} is truncated or does not match the "
            f"base metadata: expected {expected} flat elements, found shape "
            f"{tuple(flat.shape)}"
        )
    # Re-viewed as a base-class ndarray: per-table ``np.memmap`` views (each
    # dragging an instance ``__dict__``) were a dominant private-dirty cost
    # of a worker opening a large snapshot.
    return flat.view(np.ndarray)


# --------------------------------------------------------------------------- #
# The codec: per-table state <-> metadata arrays + flat arrays
# --------------------------------------------------------------------------- #
class _Tables(NamedTuple):
    """A set of tables as the codec writes and reads them: the encodings and
    the interval rows (columns)."""

    ids: List[str]
    encoded: List[EncodedTable]
    interval_bounds: np.ndarray  # (R, 2) float64 [low, high] rows
    interval_tables: List[str]
    interval_columns: List[str]


def _lsh_payload(processor: HybridQueryProcessor) -> dict:
    return {
        "num_bits": processor.lsh_config.num_bits,
        "hamming_radius": processor.lsh_config.hamming_radius,
        "seed": processor.lsh_config.seed,
    }


def _streams_payload(processor: HybridQueryProcessor) -> dict:
    """JSON-friendly streaming registry: parent -> segments + append state.

    A streaming table persists as its window-segment encodings (they are the
    real index entries); this payload carries the bookkeeping needed to
    recompose parents and continue appending after a restore — the ordered
    segment family, the window size, the row count and the rows of the
    unsealed tail window.  Written into every base *and* every append-only
    segment (full registry, last writer wins on replay), so a segment delta
    alone is enough to move the restored stream state forward.
    """
    payload: dict = {}
    for parent, segment_ids in getattr(processor, "streams", {}).items():
        state = processor.stream_states.get(parent) or {}
        payload[parent] = {
            "segments": list(segment_ids),
            "segment_rows": int(state.get("segment_rows", 0)),
            "total_rows": int(state.get("total_rows", 0)),
            "column_names": list(state.get("column_names", [])),
            "roles": {
                name: str(role)
                for name, role in (state.get("roles") or {}).items()
            },
            "tail": {
                name: [float(value) for value in np.asarray(values).ravel()]
                for name, values in (state.get("tail") or {}).items()
            },
        }
    return payload


def _persisted_ids(processor: HybridQueryProcessor) -> List[str]:
    """The ids whose encodings a snapshot carries (segments, not parents)."""
    ids = getattr(processor, "persisted_table_ids", None)
    return list(ids) if ids is not None else list(processor.table_ids)


def _live_tables(
    processor: HybridQueryProcessor, ids: Sequence[str], intervals: Sequence[Interval]
) -> _Tables:
    return _Tables(
        ids=list(ids),
        encoded=[processor.scorer.encoded_table(table_id) for table_id in ids],
        interval_bounds=np.array(
            [interval[:2] for interval in intervals], dtype=np.float64
        ).reshape(len(intervals), 2),
        interval_tables=[interval.table_id for interval in intervals],
        interval_columns=[interval.column_name for interval in intervals],
    )


# The metadata arrays.  The lean worker path decodes only the first group;
# fingerprints and intervals never survive into :class:`EncodedTable`.
_TABLE_ARRAYS = (
    "table_ids",
    "rep_offsets",
    "rep_shapes",
    "colemb_offsets",
    "column_offsets",
    "column_names",
    "column_ranges",
)
_INDEX_ARRAYS = (
    "fingerprints",
    "interval_bounds",
    "interval_table_ids",
    "interval_column_names",
)


def _strings_array(values: Sequence[str]) -> np.ndarray:
    """A numpy unicode array (``<U1``-typed when empty, for round-tripping)."""
    if not values:
        return np.empty(0, dtype="<U1")
    return np.array(list(values), dtype=np.str_)


def _concatenated(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _encode(
    tables: _Tables, dtype: np.dtype
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """The codec, write side: ``tables`` -> (metadata arrays, flat arrays)."""
    rep_offsets: List[int] = []
    rep_shapes: List[Tuple[int, int, int]] = []
    colemb_offsets: List[int] = []
    column_offsets: List[int] = [0]  # (N+1,) prefix sums into the flat columns
    names_flat: List[str] = []
    ranges_flat: List[Tuple[float, float]] = []
    rep_parts: List[np.ndarray] = []
    colemb_parts: List[np.ndarray] = []
    rep_offset = colemb_offset = 0
    for encoded in tables.encoded:
        representations = np.ascontiguousarray(encoded.representations, dtype=dtype)
        column_embeddings = np.ascontiguousarray(encoded.column_embeddings, dtype=dtype)
        rep_offsets.append(rep_offset)
        rep_shapes.append(tuple(int(dim) for dim in representations.shape))
        colemb_offsets.append(colemb_offset)
        names_flat.extend(encoded.column_names)
        ranges_flat.extend(
            (float(low), float(high)) for low, high in encoded.column_ranges
        )
        column_offsets.append(len(names_flat))
        rep_parts.append(representations.reshape(-1))
        rep_offset += representations.size
        colemb_parts.append(column_embeddings.reshape(-1))
        colemb_offset += column_embeddings.size
    num_tables = len(tables.encoded)
    arrays = {
        "table_ids": _strings_array(tables.ids),
        "fingerprints": _strings_array([e.fingerprint() for e in tables.encoded]),
        "rep_offsets": np.asarray(rep_offsets, dtype=np.int64),
        "rep_shapes": np.asarray(rep_shapes, dtype=np.int64).reshape(num_tables, 3),
        "colemb_offsets": np.asarray(colemb_offsets, dtype=np.int64),
        "column_offsets": np.asarray(column_offsets, dtype=np.int64),
        "column_names": _strings_array(names_flat),
        "column_ranges": np.asarray(ranges_flat, dtype=np.float64).reshape(
            len(names_flat), 2
        ),
        "interval_bounds": tables.interval_bounds,
        "interval_table_ids": _strings_array(tables.interval_tables),
        "interval_column_names": _strings_array(tables.interval_columns),
    }
    flats = {
        "reps": _concatenated(rep_parts, dtype),
        "colemb": _concatenated(colemb_parts, dtype),
    }
    return arrays, flats


def _first(bad: np.ndarray) -> Optional[int]:
    """The index of the first true entry of ``bad``, if any."""
    return int(np.argmax(bad)) if bad.any() else None


def _decode(
    source: Path,
    arrays: Dict[str, np.ndarray],
    flats: Dict[str, np.ndarray],
    dtype: np.dtype,
    embed_dim: int,
    lean: bool = False,
) -> _Tables:
    """The codec, read side: every table's :class:`EncodedTable`, built once
    as views into the flat arrays, plus its interval rows.

    ``source`` only names the file in error messages; ``arrays`` holds the
    metadata arrays a (``lean``) decode reads and ``flats`` every flat kind
    (a missing member fails where it is read).  Every recorded shape is
    checked (no zero dimension, width ``embed_dim``), every offset
    bounds-checked against the flat arrays and every interval row checked
    (no NaN bound, ``low <= high``, naming a table of this file) in whole-array
    passes before the one loop that builds the entries.  With ``lean=True``
    the index group of metadata arrays is never touched: the worker load
    path (:func:`snapshot_encodings`) only needs what :class:`EncodedTable`
    carries.  Column ranges stay ``(NC, 2)`` float64 row views; fingerprints
    are the recorded ones, not recomputed.
    """
    for kind in _FLAT_KINDS:
        flat = flats[kind]
        if flat.ndim != 1 or flat.dtype != dtype:
            raise SnapshotError(
                f"{source.name} is corrupt: flat array {kind!r} holds dtype "
                f"{flat.dtype} with shape {tuple(flat.shape)}, the snapshot "
                f"records flat {dtype} — the files do not belong to the "
                f"same snapshot"
            )
    reps_flat, colemb_flat = flats["reps"], flats["colemb"]
    table_ids = arrays["table_ids"].tolist()
    num_tables = len(table_ids)
    rep_shapes = arrays["rep_shapes"]
    column_offsets = arrays["column_offsets"]
    names_flat = arrays["column_names"].tolist()
    ranges_flat = arrays["column_ranges"]
    per_table = ("rep_offsets", "colemb_offsets") + (() if lean else ("fingerprints",))
    disagree = (
        rep_shapes.shape != (num_tables, 3)
        or any(arrays[member].shape != (num_tables,) for member in per_table)
        or column_offsets.shape != (num_tables + 1,)
        or int(column_offsets[-1]) != len(names_flat)
        or ranges_flat.shape != (len(names_flat), 2)
    )
    if not lean:
        num_rows = len(arrays["interval_table_ids"])
        disagree = disagree or (
            arrays["interval_bounds"].shape != (num_rows, 2)
            or arrays["interval_column_names"].shape != (num_rows,)
        )
    if disagree:
        raise SnapshotError(
            f"{source.name} is corrupt: snapshot arrays disagree on the "
            f"number of tables/columns/elements"
        )
    # A shape no encoder produces would load and then fail every query.
    index = _first((rep_shapes <= 0).any(axis=1) | (rep_shapes[:, 2] != embed_dim))
    if index is not None:
        raise SnapshotError(
            f"{source.name} is corrupt: table {table_ids[index]!r} records shape "
            f"{tuple(rep_shapes[index].tolist())}, not (columns >= 1, "
            f"segments >= 1, embed_dim={embed_dim})"
        )
    rep_offsets = arrays["rep_offsets"]
    rep_sizes = rep_shapes.prod(axis=1)
    reps_total = reps_flat.shape[0]
    index = _first((rep_offsets < 0) | (rep_offsets + rep_sizes > reps_total))
    if index is not None:
        raise SnapshotError(
            f"{source.name} is corrupt: table {table_ids[index]!r} points past the "
            f"end of the reps array (offset {rep_offsets[index]} + "
            f"{rep_sizes[index]} elements > {reps_total})"
        )
    colemb_offsets = arrays["colemb_offsets"]
    colemb_ends = colemb_offsets + rep_shapes[:, 0] * rep_shapes[:, 2]
    index = _first((colemb_offsets < 0) | (colemb_ends > colemb_flat.shape[0]))
    if index is not None:
        raise SnapshotError(
            f"{source.name} is corrupt: table {table_ids[index]!r} points past the "
            f"end of the colemb array"
        )
    if lean:
        bounds, row_tables, row_columns = np.empty((0, 2)), [], []
        fingerprints: List[Optional[str]] = [None] * num_tables
    else:
        # Interval rows must be [low, high] ranges of tables this file
        # records.  An infinite bound is legal (a column whose sum overflows
        # is indexed up to inf); a NaN bound overlaps no query, so it would
        # silently drop its table from every interval candidate set.
        bounds = arrays["interval_bounds"]
        row_tables = arrays["interval_table_ids"].tolist()
        row_columns = arrays["interval_column_names"].tolist()
        lows, highs = bounds[:, 0], bounds[:, 1]
        row = _first(~(lows <= highs))
        if row is not None:
            raise SnapshotError(
                f"{source.name} is corrupt: interval row {row} "
                f"({row_tables[row]!r}, {row_columns[row]!r}) is "
                f"[{lows[row]}, {highs[row]}], not a range with low <= high"
            )
        unknown = set(row_tables).difference(table_ids)
        if unknown:
            raise SnapshotError(
                f"{source.name} is corrupt: interval rows name table "
                f"{min(unknown)!r}, which the file does not record"
            )
        fingerprints = arrays["fingerprints"].tolist()
    encoded: List[EncodedTable] = []
    columns = column_offsets.tolist()
    for table_id, (nc, n2, k), offset, colemb_at, start, stop, digest in zip(
        table_ids,
        rep_shapes.tolist(),
        rep_offsets.tolist(),
        colemb_offsets.tolist(),
        columns,
        columns[1:],
        fingerprints,
    ):
        size = nc * n2 * k
        # Positional: keyword arguments cost half as much again per table.
        entry = EncodedTable(
            table_id,
            reps_flat[offset : offset + size].reshape(nc, n2, k),
            names_flat[start:stop],
            ranges_flat[start:stop],
            colemb_flat[colemb_at : colemb_at + nc * k].reshape(nc, k),
        )
        entry._fingerprint = digest
        encoded.append(entry)
    return _Tables(table_ids, encoded, bounds, row_tables, row_columns)


def _replay(held: _Tables, added: _Tables, tombstones: Sequence[str]) -> _Tables:
    """``held`` after one segment: tombstoned ids and ids the segment re-adds
    lose their held copy (so replay is idempotent), then ``added`` follows."""
    dropped = set(tombstones).union(added.ids)

    def kept(ids: List[str]) -> np.ndarray:
        return np.fromiter((i not in dropped for i in ids), bool, len(ids))

    keep, rows = kept(held.ids), kept(held.interval_tables)
    return _Tables(
        list(compress(held.ids, keep)) + added.ids,
        list(compress(held.encoded, keep)) + added.encoded,
        np.concatenate((held.interval_bounds[rows], added.interval_bounds)),
        list(compress(held.interval_tables, rows)) + added.interval_tables,
        list(compress(held.interval_columns, rows)) + added.interval_columns,
    )


# --------------------------------------------------------------------------- #
# Reading a lineage
# --------------------------------------------------------------------------- #
def _recorded_tables(
    path: Path, base_meta: Optional[dict] = None
) -> Tuple[dict, List[str], List[str]]:
    """``__meta__``, table ids and fingerprints of one base or segment: two
    small members, which is what keeps an append's *I/O* proportional to the
    delta."""
    meta, arrays = _read_members(path, ("table_ids", "fingerprints"), base_meta)
    return meta, arrays["table_ids"].tolist(), arrays["fingerprints"].tolist()


def _merged_snapshot(
    path: PathLike, mmap: bool = False, lean: bool = False
) -> Tuple[Path, dict, _Tables]:
    """Replay base + segments into one set of tables (for load/compaction).

    ``lean=True`` (worker path) skips fingerprints and interval rows —
    neither survives into :class:`EncodedTable`.  ``mmap`` applies to the
    base sidecars; segment tables are always copies.
    """
    base = _resolve_snapshot_path(path)
    names = _TABLE_ARRAYS if lean else _TABLE_ARRAYS + _INDEX_ARRAYS
    base_meta, arrays = _read_members(base, names)
    dtype, embed_dim = np.dtype(base_meta["dtype"]), base_meta["embed_dim"]
    flats = {kind: _open_sidecar(base, base_meta, kind, mmap) for kind in _FLAT_KINDS}
    tables = _decode(base, arrays, flats, dtype, embed_dim, lean)
    streams_meta = base_meta["streams"]
    for segment in snapshot_segments(base):
        meta, members = _read_members(segment, names + _FLAT_KINDS, base_meta)
        added = _decode(segment, members, members, dtype, embed_dim, lean)
        streams_meta = meta["streams"]  # the full registry: newest copy wins
        tables = _replay(tables, added, meta["tombstones"])
    base_meta = dict(base_meta)
    base_meta["streams"] = streams_meta
    return base, base_meta, tables


# --------------------------------------------------------------------------- #
# Save: full base or append-only segment
# --------------------------------------------------------------------------- #
def _write_base(base: Path, header: dict, tables: _Tables) -> Path:
    base = _canonical_base(base)
    arrays, flats = _encode(tables, np.dtype(header["dtype"]))
    generation = _next_generation(base)
    meta = dict(
        header,
        version=SNAPSHOT_VERSION,
        generation=generation,
        num_tables=len(tables.ids),
        sidecars={
            kind: {
                "file": _sidecar_path(base, generation, kind).name,
                "elements": int(flats[kind].shape[0]),
            }
            for kind in _FLAT_KINDS
        },
    )
    # Sidecars land complete and durable under a fresh generation *before*
    # the base archive is replaced; the base rename is the commit point,
    # after which older generations are garbage and deleted.
    for kind in _FLAT_KINDS:
        _atomic_write(
            _sidecar_path(base, generation, kind),
            lambda handle, flat=flats[kind]: np.save(handle, flat),
        )
    written = _write_archive(base, meta, arrays)
    _cleanup_sidecars(written, keep_generation=generation)
    return written


def _header(processor: HybridQueryProcessor) -> dict:
    return {
        "embed_dim": processor.scorer.config.embed_dim,
        "dtype": processor.scorer.config.numeric_dtype.name,
        "lsh": _lsh_payload(processor),
        "streams": _streams_payload(processor),
    }


def save_processor(
    processor: HybridQueryProcessor,
    path: PathLike,
    append: bool = False,
    layout: Optional[str] = None,
) -> Path:
    """Snapshot a built :class:`HybridQueryProcessor` to ``path`` (``.npz``).

    With ``append=False`` (the default) this writes a full **base**: the
    metadata archive plus the flat ``.npy`` sidecars holding the cached
    encodings and column embeddings of every indexed table (see the module
    docstring) — and deletes any append-only segments a previous snapshot at
    this path accumulated (the fresh base supersedes them).  Model weights are *not* included — persist those
    separately with :func:`repro.nn.serialization.save_state_dict`.

    With ``append=True`` only the **delta** against the existing base (plus
    any earlier segments) is written, as a numbered segment file next to the
    base — the added tables in the same flat-array encoding, and a tombstone
    list for removed ones.  The base's encodings are neither read nor
    rewritten, so the bytes written are O(delta); the work is not, because
    every live encoding is SHA-1-hashed to catch same-id content changes
    (12 ms at 10³, 115 ms at 10⁴ tables for a 20-table delta; a full save
    costs 26 ms / 582 ms).  Returns the path written — the segment file, or
    the base path unchanged when the delta is empty (nothing is written).
    Raises ``ValueError`` if no base exists at ``path`` or if the
    processor's precision, embedding dimension or LSH configuration does not
    match it.

    ``layout`` selects nothing: there is one format.  ``None`` and ``"v2"``
    are accepted only because the frozen ``benchmarks/ledger`` still passes
    the latter; the argument goes away with the next benchmark change.
    """
    if layout not in (None, "v2"):
        raise ValueError(
            f"unknown snapshot layout {layout!r}: there is one snapshot format "
            f"and the layout argument is vestigial — omit it"
        )
    if append:
        return _append_segment(processor, path)
    tables = _live_tables(
        processor, _persisted_ids(processor), processor.interval_tree.intervals
    )
    # Retire a previous lineage's segments *before* replacing the base:
    # deleting newest-first keeps every intermediate crash state a
    # consistent (if stale) snapshot, whereas stale segments next to the
    # new base would replay over it and resurrect removed tables.
    for stale_segment in reversed(snapshot_segments(Path(path))):
        stale_segment.unlink()
    written = _write_base(Path(path), _header(processor), tables)
    _log.info("snapshot_saved", path=str(written), tables=len(tables.ids))
    return written


def _append_segment(processor: HybridQueryProcessor, path: PathLike) -> Path:
    base = _resolve_snapshot_path(path)
    if not base.exists():
        raise ValueError(
            f"append=True needs an existing base snapshot at {base}; write one "
            f"first with save_processor(..., append=False)"
        )
    base_meta, table_ids, fingerprints = _recorded_tables(base)
    header = _header(processor)
    _check_lineage("the live processor", header, base_meta)

    # Replay ids + fingerprints only: what the lineage records as live.
    covered: Dict[str, str] = dict(zip(table_ids, fingerprints))
    segments = snapshot_segments(base)
    for segment in segments:
        meta, table_ids, fingerprints = _recorded_tables(segment, base_meta)
        for table_id in meta["tombstones"]:
            covered.pop(table_id, None)
        for table_id, fingerprint in zip(table_ids, fingerprints):
            covered.pop(table_id, None)
            covered[table_id] = fingerprint
    current = _persisted_ids(processor)
    current_set = set(current)
    # Content-aware delta: an id present on both sides whose recorded
    # fingerprint no longer matches the live encoding (removed + re-added
    # with different content) is rewritten — tombstone plus re-add in the
    # same segment.  An encoding is hashed once in its life
    # (``EncodedTable.fingerprint``), so this reads O(index) memoised
    # strings and hashes only what was encoded since the last snapshot; the
    # recorded arrays are never read.
    changed = {
        table_id
        for table_id in current
        if table_id in covered
        and processor.scorer.encoded_table(table_id).fingerprint() != covered[table_id]
    }
    new_ids = [
        table_id
        for table_id in current
        if table_id not in covered or table_id in changed
    ]
    tombstones = [
        table_id
        for table_id in covered
        if table_id not in current_set or table_id in changed
    ]
    if not new_ids and not tombstones:
        _log.debug("segment_skipped_empty_delta", base=str(base))
        return base  # empty delta: the snapshot already records this state

    numbers = [int(_SEGMENT_RE.search(s.name).group(1)) for s in segments]
    next_number = (max(numbers) + 1) if numbers else 1
    arrays, flats = _encode(
        _live_tables(
            processor, new_ids, processor.interval_tree.intervals_for_tables(new_ids)
        ),
        np.dtype(header["dtype"]),
    )
    # ``header["streams"]`` is the full streaming registry, not a delta:
    # replay takes the newest segment's copy, so a restored stream resumes
    # from the latest row-count/tail state this lineage recorded.
    meta = dict(
        header,
        version=SNAPSHOT_VERSION,
        kind="segment",
        segment=next_number,
        tombstones=tombstones,
    )
    segment_path = base.parent / (
        base.stem + _SEGMENT_SUFFIX.format(number=next_number)
    )
    written = _write_archive(segment_path, meta, {**arrays, **flats})
    _log.info(
        "segment_saved",
        path=str(written),
        segment=next_number,
        added=len(new_ids),
        tombstones=len(tombstones),
    )
    return written


def compact_snapshot(path: PathLike) -> Path:
    """Fold a base + its append-only segments back into one base.

    Replays the segments, rewrites the base with the merged state and then
    deletes the segment files; loading the compacted snapshot is equivalent
    to loading the segmented one (``tests/test_serving.py`` pins this).  A
    snapshot with no segments is returned untouched.  Crash safety: the
    base is rewritten *before* the segments are deleted (its sidecars land
    under a fresh generation before the base rename commits them), and
    replaying a segment over the compacted base is idempotent, so an
    interruption between the steps cannot corrupt the snapshot.
    """
    base = _resolve_snapshot_path(path)
    segments = snapshot_segments(base)
    if not segments:
        _check_header(_read_meta(base), base)
        return base
    base, base_meta, tables = _merged_snapshot(base, mmap=True)
    header = {name: base_meta[name] for name in _HEADER_FIELDS}
    base = _write_base(base, header, tables)
    for segment in segments:
        segment.unlink()
    _log.info(
        "snapshot_compacted",
        path=str(base),
        tables=len(tables.ids),
        segments_folded=len(segments),
    )
    return base


# --------------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------------- #
def snapshot_encodings(path: PathLike, mmap: bool = False) -> List[EncodedTable]:
    """The cached :class:`EncodedTable` entries a snapshot records.

    Replays append-only segments like :func:`load_processor`, but needs no
    model and rebuilds no index structures — this is the worker-side entry
    point: with ``mmap=True`` every base table's arrays are zero-copy
    read-only views into the memory-mapped sidecars, so a pool of query
    workers opening the same snapshot shares one page-cache-backed copy of
    the encodings instead of each holding a private duplicate.
    """
    return _merged_snapshot(path, mmap=mmap, lean=True)[2].encoded


def load_processor(
    model: FCMModel,
    path: PathLike,
    scorer: Optional[FCMScorer] = None,
    mmap: bool = False,
) -> HybridQueryProcessor:
    """Rebuild a query processor from a snapshot, without re-encoding.

    The base is read and any append-only segments are replayed in order
    (tombstones applied, then additions), so the restored state is exactly
    what the last ``save_processor`` — full or append — recorded.  The
    snapshot's cached encodings and column embeddings are injected into a
    fresh (or supplied) scorer, the interval index takes the saved interval
    rows as its arrays and the LSH hashes the column embeddings in one product —
    queries against the result are identical to the processor that was
    saved (``tests/test_serving.py`` pins the round trip).  With
    ``mmap=True`` the base encodings are read-only views into memory-mapped
    sidecar files instead of in-process copies; segment-recorded tables
    still load as copies (deltas are small by construction).  Raises
    ``ValueError`` if the model's embedding dimension or numeric precision
    does not match the snapshot's, and :class:`SnapshotError` if any file of
    the lineage is missing, truncated, corrupt or from an older format.
    """
    base, meta, tables = _merged_snapshot(path, mmap=mmap)
    if meta["embed_dim"] != model.config.embed_dim:
        raise ValueError(
            f"snapshot was built with embed_dim={meta['embed_dim']}, "
            f"the model has embed_dim={model.config.embed_dim}"
        )
    snapshot_dtype = meta["dtype"]
    model_dtype = model.config.numeric_dtype.name
    if snapshot_dtype != model_dtype:
        raise ValueError(
            f"snapshot was built under dtype={snapshot_dtype}, the model runs "
            f"{model_dtype}; cached encodings cannot be cast without changing "
            f"scores — rebuild the index under {model_dtype} (or load with a "
            f"{snapshot_dtype} model, e.g. REPRO_DTYPE={snapshot_dtype})"
        )

    scorer = scorer or FCMScorer(model)
    processor = HybridQueryProcessor(scorer, lsh_config=LSHConfig(**meta["lsh"]))
    streams_meta = meta["streams"]
    segment_ids = {
        seg_id for entry in streams_meta.values() for seg_id in entry["segments"]
    }
    scorer.add_encoded_tables(tables.encoded)
    processor._hash_tables(tables.ids)
    processor.register_tables([t for t in tables.ids if t not in segment_ids])
    bounds = tables.interval_bounds
    processor.interval_tree = IntervalTree.from_arrays(
        bounds[:, 0], bounds[:, 1], tables.interval_tables, tables.interval_columns
    )
    recorded = set(tables.ids)
    for parent, entry in streams_meta.items():
        missing = [s for s in entry["segments"] if s not in recorded]
        if missing:
            raise SnapshotError(
                f"snapshot {base.name} is corrupt: stream {parent!r} references "
                f"unrecorded segments {missing}"
            )
        processor.register_stream(
            parent,
            entry["segments"],
            {
                "segment_rows": int(entry["segment_rows"]),
                "total_rows": int(entry["total_rows"]),
                "column_names": list(entry["column_names"]),
                "roles": dict(entry.get("roles") or {}),
                "tail": {
                    name: np.asarray(values, dtype=np.float64)
                    for name, values in (entry.get("tail") or {}).items()
                },
            },
        )
    _log.info(
        "snapshot_loaded",
        path=str(base),
        tables=len(tables.ids),
        streams=len(streams_meta),
        mmap=mmap,
        dtype=snapshot_dtype,
    )
    return processor
