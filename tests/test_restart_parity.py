"""A restored processor against the one that saved it.

``load_processor(..., mmap=True)`` builds every table's entry once, straight
from the mapped sidecars, rehashes the LSH codes in one product, restores the
registry in bulk and builds the interval index from the decoded bound arrays.
Whatever the lineage — a base alone, a base plus append segments that add, remove and
re-add tables and move a stream forward, or those segments replayed over the
base a crashed compaction already folded them into — the restored state must
be the saved one: encodings bitwise equal *and* still views of the mapped
sidecar files, LSH buckets and codes equal, the same interval rows, and
interval queries returning the brute-force scan of the live intervals
(``tests/test_interval_oracle.py``), before and after post-restore writes
that add, remove and re-add tables and append to a stream.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.data import SynthConfig, synth_tables
from repro.fcm import FCMModel
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig, StreamingConfig, compact_snapshot
from repro.serving import persistence

from conftest import read_archive
from test_interval_oracle import brute_force, windows

LSH = LSHConfig(num_bits=6, hamming_radius=1)
WINDOW = 32


@pytest.fixture(scope="module")
def model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


def _corpus(count: int, seed: int = 0):
    config = SynthConfig(num_tables=count, num_rows=48, max_columns=2, num_clusters=4, seed=seed)
    return list(synth_tables(config))


def _config(**overrides) -> ServingConfig:
    return ServingConfig(
        lsh_config=LSH, streaming=StreamingConfig(segment_rows=WINDOW), **overrides
    )


def _append(service, size: int, start: int) -> None:
    rng = np.random.default_rng(start)
    rows = {
        "x": np.arange(start, start + size, dtype=float),
        "y": np.cumsum(rng.normal(0.0, 1.0, size)),
    }
    service.append_rows("live", rows, roles={"x": "x"} if start == 0 else None)


def _base_only(model, tmp_path):
    service = SearchService(model, _config())
    service.build(_corpus(6))
    _append(service, 70, 0)
    return service, service.save_index(tmp_path / "index.npz")


def _with_segments(model, tmp_path):
    corpus = _corpus(8)
    service = SearchService(model, _config())
    service.build(corpus[:5])
    _append(service, 40, 0)
    path = service.save_index(tmp_path / "index.npz")
    service.add_tables(corpus[5:])
    service.save_index(path, append=True)
    service.remove_tables([corpus[1].table_id])
    service.save_index(path, append=True)
    service.remove_tables([corpus[2].table_id])
    service.add_tables([corpus[2]])  # re-added: a tombstone plus a re-add
    _append(service, 30, 40)  # the tail window changes, a new one opens
    service.save_index(path, append=True)
    assert len(persistence.snapshot_segments(path)) == 3
    return service, path


def _replayed_over_compaction(model, tmp_path):
    """A crash between compaction's rewrite and its segment deletes: the
    compacted base with the segments it folded still beside it, so every
    segment table is re-added over its own copy on replay."""
    service, path = _with_segments(model, tmp_path)
    segments = {seg: seg.read_bytes() for seg in persistence.snapshot_segments(path)}
    compact_snapshot(path)
    for segment, raw in segments.items():
        segment.write_bytes(raw)
    return service, path


LINEAGES = {
    "base": _base_only,
    "segments": _with_segments,
    "replayed": _replayed_over_compaction,
}


@pytest.fixture(params=sorted(LINEAGES))
def lineage(request, model, tmp_path):
    saved, path = LINEAGES[request.param](model, tmp_path)
    restored = SearchService.load_index(model, path, _config(mmap_index=True))
    return saved, restored, path


def _mapped_file(array: np.ndarray):
    """The memory map ``array`` is a view of, if any."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return array
        array = array.base
    return None


def test_encodings_are_bitwise_and_base_tables_stay_mapped(lineage):
    saved, restored, path = lineage
    ids = list(saved.scorer.generation.encoded)  # plain tables and stream segments
    assert sorted(restored.scorer.generation.encoded) == sorted(ids)
    def recorded(file):
        return set(read_archive(file)[1]["table_ids"].tolist())

    # Base tables no segment re-adds load as views of the mapped sidecars.
    base_ids = recorded(path).difference(
        *(recorded(segment) for segment in persistence.snapshot_segments(path))
    )
    assert base_ids
    meta = persistence._read_meta(path)
    for table_id in ids:
        ours = restored.scorer.encoded_table(table_id)
        theirs = saved.scorer.encoded_table(table_id)
        for field in ("representations", "column_embeddings"):
            assert getattr(ours, field).dtype == getattr(theirs, field).dtype
            assert getattr(ours, field).tobytes() == getattr(theirs, field).tobytes()
        assert list(ours.column_names) == list(theirs.column_names)
        assert [tuple(map(float, r)) for r in ours.column_ranges] == [
            tuple(map(float, r)) for r in theirs.column_ranges
        ]
        # The recorded fingerprint is the content hash, not a placeholder.
        assert ours.fingerprint() == theirs.fingerprint()
        views = {"reps": ours.representations, "colemb": ours.column_embeddings}
        for kind, view in views.items():
            mapped = _mapped_file(view)
            if table_id not in base_ids:
                assert mapped is None  # segment tables load as copies
                continue
            assert Path(mapped.filename).name == meta["sidecars"][kind]["file"]
            assert np.shares_memory(view, mapped)
            assert not view.flags.writeable


def test_lsh_and_registry_are_restored(lineage):
    saved, restored, _ = lineage
    ours, theirs = restored.processor, saved.processor
    assert ours.lsh.buckets == theirs.lsh.buckets
    assert ours.lsh.indexed_table_ids == theirs.lsh.indexed_table_ids
    assert ours.lsh.export_codes() == theirs.lsh.export_codes()
    assert set(theirs.lsh.export_codes()) == set(saved.scorer.generation.encoded)
    assert sorted(ours.table_ids) == sorted(theirs.table_ids)
    assert ours.scorer.streams == theirs.scorer.streams


def _assert_same_answers(restored, saved, seed):
    """Both trees hold the same live intervals, and each query of either is
    the brute-force scan of its own live intervals, in row order."""
    ours, theirs = restored.processor.generation.intervals, saved.processor.generation.intervals
    live, saved_live = ours.intervals, theirs.intervals
    assert sorted(live) == sorted(saved_live)
    for low, high in windows(np.random.default_rng(seed), live):
        assert ours.query(low, high) == brute_force(live, low, high)
        assert theirs.query(low, high) == brute_force(saved_live, low, high)
        assert ours.query_table_ids(low, high) == theirs.query_table_ids(low, high)


def test_interval_queries_before_and_after_writes(lineage):
    saved, restored, _ = lineage
    services = (restored, saved)
    _assert_same_answers(restored, saved, seed=0)

    extra = _corpus(12, seed=5)[8:]
    victim = saved.processor.table_ids[0]
    for service in services:
        service.add_tables(extra)
        service.remove_tables([victim])
    _assert_same_answers(restored, saved, seed=1)
    back = next(t for t in _corpus(8) + extra if t.table_id == victim)
    for service in services:
        service.add_tables([back])  # re-adding a removed id
        _append(service, 50, 200)
    _assert_same_answers(restored, saved, seed=2)
    assert restored.processor.lsh.buckets == saved.processor.lsh.buckets

