"""Round-trip, durability and crash-recovery properties of the snapshot format.

``tests/test_serving.py`` pins snapshot behaviour at the service level
(queries against a restored service match the original).  This module goes
one layer down and pins the **bytes**: whatever lineage a snapshot went
through — base, append-only segments, compaction — the restored processor's
cached encodings, column embeddings, LSH codes (rehashed at restore, so any
code length round-trips) and interval set must be *identical* to the live
processor's, not merely
score-equivalent.  Byte identity is the property that makes the zero-copy
mmap path trustworthy: a worker mapping the snapshot must see exactly the
arrays the parent serialised.

The second half exercises the failure surface: files from older formats,
truncated archives, missing or short sidecars, tampered metadata (in a base
*and* in a segment — one decoder reads both), files carrying the derived
arrays older builds wrote, and simulated crashes
mid-append / mid-compaction must either leave a loadable (old or new, but
consistent) snapshot behind or fail with a structured
:class:`repro.serving.SnapshotError` naming the damaged file — never a raw
``zipfile``/NumPy traceback or ``KeyError``, and never silently wrong data.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import Column, SynthConfig, Table, synth_query_charts, synth_tables
from repro.fcm import FCMConfig, FCMModel
from repro.index import LSHConfig
from repro.serving import (
    SNAPSHOT_VERSION,
    SearchService,
    ServingConfig,
    SnapshotError,
    StreamingConfig,
    compact_snapshot,
    load_processor,
    save_processor,
    snapshot_encodings,
    snapshot_segments,
)
from repro.serving import persistence

from conftest import active_dtype, quantize_table, read_archive
from test_interval_oracle import windows


@pytest.fixture(scope="module")
def rt_model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


def _synth_config(num_tables: int, seed: int = 0) -> SynthConfig:
    return SynthConfig(
        num_tables=num_tables,
        num_rows=48,
        max_columns=2,
        num_clusters=4,
        seed=seed,
    )


def _corpus(num_tables: int, seed: int = 0):
    return list(synth_tables(_synth_config(num_tables, seed)))


def _build_service(model, tables) -> SearchService:
    service = SearchService(
        model, ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1))
    )
    service.build(tables)
    return service


def _processor_state(processor):
    """Everything a snapshot must preserve, hashed down to exact bytes."""
    tables = {}
    codes = processor.lsh.export_codes()
    for table_id in processor.table_ids:
        encoded = processor.scorer.encoded_table(table_id)
        tables[table_id] = (
            encoded.representations.dtype.name,
            encoded.representations.shape,
            np.ascontiguousarray(encoded.representations).tobytes(),
            np.ascontiguousarray(encoded.column_embeddings).tobytes(),
            tuple(encoded.column_names),
            tuple((float(lo), float(hi)) for lo, hi in encoded.column_ranges),
            tuple(codes.get(table_id, ())),
        )
    intervals = frozenset(
        (iv.low, iv.high, iv.table_id, iv.column_name)
        for iv in processor.interval_tree.intervals
    )
    return tables, intervals


def _assert_loaded_identical(model, path, reference_service, mmap=False):
    loaded = load_processor(model, path, mmap=mmap)
    assert _processor_state(loaded) == _processor_state(reference_service.processor)
    return loaded


def _is_mmap_backed(array: np.ndarray) -> bool:
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


def _segmented_snapshot(model, tmp_path):
    """A base of three tables plus one append segment adding two more."""
    corpus = _corpus(5)
    service = _build_service(model, corpus[:3])
    path = save_processor(service.processor, tmp_path / "index.npz")
    service.add_tables(corpus[3:])
    save_processor(service.processor, path, append=True)
    assert len(snapshot_segments(path)) == 1
    return service, path


def _tamper(path, mutate):
    """Rewrite one archive after ``mutate(meta, arrays)`` edited it in place."""
    meta, arrays = read_archive(path)
    mutate(meta, arrays)
    persistence._write_archive(path, meta, arrays)


# --------------------------------------------------------------------------- #
# Round-trip properties
# --------------------------------------------------------------------------- #
class TestRoundTripProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_tables=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_base_round_trip_is_byte_identical(
        self, rt_model, tmp_path, num_tables, seed
    ):
        service = _build_service(rt_model, _corpus(num_tables, seed=seed))
        target = tmp_path / f"{num_tables}-{seed}" / "index.npz"
        path = save_processor(service.processor, target)
        assert persistence._read_meta(path)["version"] == SNAPSHOT_VERSION
        _assert_loaded_identical(rt_model, path, service)
        _assert_loaded_identical(rt_model, path, service, mmap=True)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_base=st.integers(min_value=2, max_value=5),
        num_added=st.integers(min_value=0, max_value=3),
        remove_one=st.booleans(),
    )
    def test_segmented_lineage_and_compaction_round_trip(
        self, rt_model, tmp_path, num_base, num_added, remove_one
    ):
        """base → append(adds) → append(remove) → load → compact → load.

        Every stage of the lineage — segmented and compacted, copied and
        mapped — restores byte-identical state.
        """
        corpus = _corpus(num_base + num_added)
        service = _build_service(rt_model, corpus[:num_base])
        stem = f"{num_base}-{num_added}-{int(remove_one)}"
        path = save_processor(service.processor, tmp_path / stem / "index.npz")
        if num_added:
            service.add_tables(corpus[num_base:])
            save_processor(service.processor, path, append=True)
        if remove_one:
            service.remove_tables([corpus[0].table_id])
            save_processor(service.processor, path, append=True)

        expected_segments = int(bool(num_added)) + int(remove_one)
        assert len(snapshot_segments(path)) == expected_segments
        _assert_loaded_identical(rt_model, path, service)
        _assert_loaded_identical(rt_model, path, service, mmap=True)

        assert compact_snapshot(path) == path
        assert snapshot_segments(path) == []
        _assert_loaded_identical(rt_model, path, service)
        _assert_loaded_identical(rt_model, path, service, mmap=True)

    def test_empty_index_round_trips(self, rt_model, tmp_path):
        service = _build_service(rt_model, [])
        path = save_processor(service.processor, tmp_path / "empty.npz")
        loaded = load_processor(rt_model, path)
        assert loaded.table_ids == []
        assert snapshot_encodings(path) == []

    def test_mmap_load_is_mapped_and_read_only(self, rt_model, tmp_path):
        service = _build_service(rt_model, _corpus(3))
        path = save_processor(service.processor, tmp_path / "index.npz")
        for encoded in snapshot_encodings(path, mmap=True):
            assert _is_mmap_backed(encoded.representations)
            assert _is_mmap_backed(encoded.column_embeddings)
            assert not encoded.representations.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                encoded.representations[...] = 0.0
        # The copy path hands out plain, private arrays.
        for encoded in snapshot_encodings(path, mmap=False):
            assert not _is_mmap_backed(encoded.representations)

    def test_segment_tables_restore_encodings_and_column_embeddings(
        self, rt_model, tmp_path
    ):
        """A segment carries the full codec payload — both flat arrays — so a
        restart recomputes no mean, and the coarse rows it derives from the
        encodings are the saving scorer's."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        segment_ids = read_archive(snapshot_segments(path)[0])[1][
            "table_ids"
        ].tolist()
        assert len(segment_ids) == 2
        restored = {e.table_id: e for e in snapshot_encodings(path)}
        for table_id in segment_ids:
            live = service.scorer.encoded_table(table_id)
            entry = restored[table_id]
            for field in ("representations", "column_embeddings"):
                assert getattr(entry, field).tobytes() == getattr(live, field).tobytes()

    def test_mmap_load_of_base_plus_segments(self, rt_model, tmp_path):
        """Base tables are read-only mapped views, segment tables are copies,
        and the two load modes rank bitwise identically."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        config = dict(lsh_config=LSHConfig(num_bits=6, hamming_radius=1))
        copy = SearchService.load_index(rt_model, path, ServingConfig(**config))
        mapped = SearchService.load_index(
            rt_model, path, ServingConfig(mmap_index=True, **config)
        )
        assert mapped.mmap_active and not copy.mmap_active
        base_ids = set(read_archive(path)[1]["table_ids"].tolist())
        assert len(base_ids) == 3 and len(mapped.table_ids) == 5
        for table_id in mapped.table_ids:
            encoded = mapped.scorer.encoded_table(table_id)
            in_base = table_id in base_ids
            assert _is_mmap_backed(encoded.representations) == in_base
            assert _is_mmap_backed(encoded.column_embeddings) == in_base
            assert encoded.representations.flags.writeable != in_base
        spec = rt_model.config.chart_spec
        for _, chart in synth_query_charts(_synth_config(5), 3, spec=spec):
            for strategy in ("none", "hybrid"):
                assert (
                    mapped.query(chart, k=5, strategy=strategy).ranking
                    == copy.query(chart, k=5, strategy=strategy).ranking
                )

    @pytest.mark.parametrize("lineage", ["base", "segments"])
    def test_codes_wider_than_64_bits_round_trip(
        self, tiny_fcm_config, tmp_path, lineage
    ):
        """A snapshot stores no codes, so any code length saves: a restore
        rehashes the column embeddings into the saving processor's buckets,
        copied or mapped, over a base alone and over a base plus a segment
        that adds a table and moves a stream forward."""
        model = FCMModel(tiny_fcm_config)
        service = SearchService(
            model,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=65, hamming_radius=0),
                streaming=StreamingConfig(segment_rows=32),
            ),
        )

        def rows(start, size):
            x = np.arange(start, start + size, dtype=float)
            return {"x": x, "y": np.sin(x / 5.0)}

        corpus = _corpus(4)
        service.build(corpus[:3])
        service.append_rows("live", rows(0, 40), roles={"x": "x"})
        path = save_processor(service.processor, tmp_path / "wide.npz")
        if lineage == "segments":
            service.add_tables(corpus[3:])
            service.append_rows("live", rows(40, 30))
            save_processor(service.processor, path, append=True)
            assert len(snapshot_segments(path)) == 1
        saved = service.processor.lsh
        codes = saved.export_codes()
        assert any(code >> 64 for table in codes.values() for code in table)
        for mmap in (False, True):
            restored = load_processor(model, path, mmap=mmap).lsh
            assert restored.config.num_bits == 65
            assert restored.buckets == saved.buckets
            assert restored.export_codes() == codes

    def test_vestigial_layout_argument(self, rt_model, tmp_path):
        service = _build_service(rt_model, _corpus(1))
        save_processor(service.processor, tmp_path / "x.npz", False, "v2")
        for layout in ("v1", "v3", 1):
            with pytest.raises(ValueError, match="layout"):
                save_processor(service.processor, tmp_path / "x.npz", False, layout)

    def test_single_sidecar_generation_after_rewrites(self, rt_model, tmp_path):
        """Repeated full saves bump the generation and GC the old sidecars."""
        service = _build_service(rt_model, _corpus(3))
        path = save_processor(service.processor, tmp_path / "index.npz")
        first = {p.name for _, p in persistence._sidecar_files(path)}
        service.remove_tables([service.table_ids[0]])
        save_processor(service.processor, path)
        second = {p.name for _, p in persistence._sidecar_files(path)}
        assert len(first) == len(second) == 2  # reps/colemb
        assert first.isdisjoint(second)  # fresh generation, old one deleted
        _assert_loaded_identical(rt_model, path, service, mmap=True)


def _hexed(result):
    return [(table_id, float(score).hex()) for table_id, score in result.ranking]


class TestInfiniteIntervalBounds:
    """Finite values whose sum overflows index a column up to ``inf``: 64 ×
    ``1e307`` is ``[1e307, inf]``.  A snapshot stores that row, and a load
    (base or segment, copied or mapped) restores it and answers as the
    service that saved it."""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @pytest.mark.parametrize("lineage", ["base", "segment"])
    def test_round_trip_answers_like_the_saved_service(self, rt_model, tmp_path, lineage):
        big = Table("big", [Column("a", np.full(64, 1e307))])
        corpus = _corpus(4)
        service = _build_service(rt_model, corpus + [big] if lineage == "base" else corpus)
        path = save_processor(service.processor, tmp_path / "index.npz")
        if lineage == "segment":
            service.add_tables([big])
            save_processor(service.processor, path, append=True)
            assert len(snapshot_segments(path)) == 1
        saved_tree = service.processor.interval_tree
        assert (1e307, np.inf, "big", "a") in saved_tree.intervals
        ranges = [(0.0, 1.0), (2e307, 3e307), (1e308, np.inf), (-np.inf, np.inf)]
        charts = list(synth_query_charts(_synth_config(4), 3, spec=rt_model.config.chart_spec))
        lsh = LSHConfig(num_bits=6, hamming_radius=1)
        for mmap in (False, True):
            loaded = SearchService.load_index(
                rt_model, path, ServingConfig(mmap_index=mmap, lsh_config=lsh)
            )
            assert _processor_state(loaded.processor) == _processor_state(service.processor)
            tree = loaded.processor.interval_tree
            assert tree.query_table_ids(1e308, np.inf) == {"big"}
            for low, high in ranges:
                assert tree.query(low, high) == saved_tree.query(low, high)
            for _, chart in charts:
                for strategy in ("none", "interval", "hybrid"):
                    # Compared as float.hex: the encoder's column mean
                    # overflows too, so the big table scores NaN.
                    assert _hexed(loaded.query(chart, k=5, strategy=strategy)) == _hexed(
                        service.query(chart, k=5, strategy=strategy)
                    )


#: A snapshot recorded by an older build, with the answers that build gave:
#: ``python tests/test_persistence_roundtrip.py`` (``PYTHONPATH=<src>:tests``)
#: rewrites it from whatever ``src`` is on the path.  It was recorded while
#: the interval index was still a centred tree, so it pins that the same
#: file restores into the row-array index and answers the same.
SNAPSHOT_FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v3"
SNAPSHOT_FIXTURE_CONFIG = FCMConfig(
    embed_dim=16,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    beta=2,
    max_data_segments=4,
    dtype="float64",
)
SNAPSHOT_FIXTURE_SERVING = dict(
    lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
    streaming=StreamingConfig(segment_rows=32),
)


def _fixture_answers(service):
    """Interval rows and overlap answers, and the rankings of every strategy."""
    tree = service.processor.interval_tree
    live = sorted(tree.intervals)
    charts = synth_query_charts(_synth_config(6), 3, spec=service.model.config.chart_spec)
    return {
        "intervals": [[iv.low.hex(), iv.high.hex(), iv.table_id, iv.column_name] for iv in live],
        "overlaps": [
            [low, high, sorted(tree.query_table_ids(low, high))]
            for low, high in windows(np.random.default_rng(0), live, count=20)
        ],
        "rankings": {
            strategy: [_hexed(service.query(chart, k=5, strategy=strategy)) for _, chart in charts]
            for strategy in ("none", "interval", "lsh", "hybrid")
        },
    }


def write_snapshot_fixture(directory: Path) -> dict:
    """A base of four tables, then one append segment that adds two tables,
    removes one and starts a stream; returns the writing service's answers."""
    corpus = _corpus(6)
    model = FCMModel(SNAPSHOT_FIXTURE_CONFIG)
    service = SearchService(model, ServingConfig(**SNAPSHOT_FIXTURE_SERVING))
    service.build(corpus[:4])
    path = save_processor(service.processor, directory / "index.npz")
    service.add_tables(corpus[4:])
    service.remove_tables([corpus[1].table_id])
    x = np.arange(80, dtype=float)
    service.append_rows("live", {"x": x, "y": np.sin(x / 7.0)}, roles={"x": "x"})
    save_processor(service.processor, path, append=True)
    return _fixture_answers(service)


class TestSnapshotOfAnOlderBuild:
    def test_loads_and_answers_as_recorded(self, tmp_path):
        shutil.copytree(SNAPSHOT_FIXTURE, tmp_path / "fixture")
        recorded = json.loads((SNAPSHOT_FIXTURE / "answers.json").read_text())
        model = FCMModel(SNAPSHOT_FIXTURE_CONFIG)
        path = tmp_path / "fixture" / "index.npz"
        assert len(snapshot_segments(path)) == 1
        for mmap in (False, True):
            config = ServingConfig(mmap_index=mmap, **SNAPSHOT_FIXTURE_SERVING)
            service = SearchService.load_index(model, path, config)
            answers = json.loads(json.dumps(_fixture_answers(service)))
            assert answers == recorded["answers"]


# --------------------------------------------------------------------------- #
# Durability: fsync before the rename, the directory after it
# --------------------------------------------------------------------------- #
class TestDurability:
    @pytest.fixture
    def events(self, monkeypatch):
        """Record ``os.fsync`` / ``os.replace`` calls made by persistence."""
        recorded = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            recorded.append(("fsync", kind, os.readlink(f"/proc/self/fd/{fd}")))
            return real_fsync(fd)

        def replace(src, dst):
            recorded.append(("replace", str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(persistence.os, "fsync", fsync)
        monkeypatch.setattr(persistence.os, "replace", replace)
        return recorded

    def _assert_every_rename_is_flushed(self, events):
        """file fsync(tmp) → replace(tmp, target) → dir fsync(parent); returns
        the committed targets in order."""
        targets = []
        for position, event in enumerate(events):
            if event[0] != "replace":
                continue
            _, src, dst = event
            assert events[position - 1] == ("fsync", "file", src)
            assert events[position + 1] == ("fsync", "dir", os.path.dirname(dst))
            targets.append(os.path.basename(dst))
        assert len(events) == 3 * len(targets)  # nothing unflushed, nothing extra
        return targets

    def _assert_base_commit(self, targets, path):
        *sidecars, base = targets
        assert base == path.name  # the base rename is the commit point: last
        assert sorted(sidecars) == sorted(
            p.name for _, p in persistence._sidecar_files(path)
        )
        assert len(sidecars) == 2

    def test_full_save_append_and_compaction_flush_before_commit(
        self, rt_model, tmp_path, events
    ):
        corpus = _corpus(4)
        service = _build_service(rt_model, corpus[:3])
        path = save_processor(service.processor, tmp_path / "index.npz")
        self._assert_base_commit(self._assert_every_rename_is_flushed(events), path)

        events.clear()
        service.add_tables(corpus[3:])
        segment = save_processor(service.processor, path, append=True)
        assert self._assert_every_rename_is_flushed(events) == [segment.name]

        events.clear()
        compact_snapshot(path)
        self._assert_base_commit(self._assert_every_rename_is_flushed(events), path)
        _assert_loaded_identical(rt_model, path, service)


# --------------------------------------------------------------------------- #
# Crash recovery: torn appends, interrupted compactions
# --------------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_leftover_tmp_file_from_crashed_append_is_ignored(
        self, rt_model, tmp_path
    ):
        """A crash before the atomic rename leaves only an inert temp file."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        stray = path.with_name(path.stem + ".seg-0002.npz.tmp.npz")
        stray.write_bytes(b"half-written garbage")
        assert len(snapshot_segments(path)) == 1  # the stray is not a segment
        _assert_loaded_identical(rt_model, path, service)

    def test_truncated_segment_is_a_structured_error(self, rt_model, tmp_path):
        """A torn *renamed* segment (e.g. bad copy) fails loudly, by name."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        segment = snapshot_segments(path)[0]
        segment.write_bytes(segment.read_bytes()[:128])
        with pytest.raises(SnapshotError, match=segment.name):
            load_processor(rt_model, path)

    def test_crash_after_compact_rewrite_before_segment_delete(
        self, rt_model, tmp_path, monkeypatch
    ):
        """Replay over a compacted base is idempotent, so this crash is safe."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        expected = _processor_state(service.processor)

        original_unlink = persistence.Path.unlink

        def failing_unlink(self, *args, **kwargs):
            if ".seg-" in self.name:
                raise OSError("simulated crash before segment cleanup")
            return original_unlink(self, *args, **kwargs)

        monkeypatch.setattr(persistence.Path, "unlink", failing_unlink)
        with pytest.raises(OSError, match="simulated crash"):
            compact_snapshot(path)
        monkeypatch.undo()

        # Base is already compacted, the stale segment replays harmlessly.
        assert len(snapshot_segments(path)) == 1
        assert _processor_state(load_processor(rt_model, path)) == expected
        # Re-running the interrupted compaction completes it.
        compact_snapshot(path)
        assert snapshot_segments(path) == []
        assert _processor_state(load_processor(rt_model, path)) == expected

    def test_crash_before_base_commit_keeps_old_generation(
        self, rt_model, tmp_path, monkeypatch
    ):
        """Sidecars land before the base rename; a crash between them leaves
        the old base + old sidecars fully consistent, and the orphaned new
        generation is garbage-collected by the next successful rewrite."""
        service, path = _segmented_snapshot(rt_model, tmp_path)
        expected = _processor_state(service.processor)

        def exploding_write_archive(*args, **kwargs):
            raise RuntimeError("simulated crash before base rename")

        monkeypatch.setattr(
            persistence, "_write_archive", exploding_write_archive
        )
        with pytest.raises(RuntimeError, match="simulated crash"):
            compact_snapshot(path)
        monkeypatch.undo()

        # Old base + segment still load; the orphan sidecars are inert.
        generations = {g for g, _ in persistence._sidecar_files(path)}
        assert len(generations) == 2  # committed + orphaned
        assert _processor_state(load_processor(rt_model, path)) == expected

        compact_snapshot(path)
        assert snapshot_segments(path) == []
        assert len({g for g, _ in persistence._sidecar_files(path)}) == 1
        assert _processor_state(load_processor(rt_model, path)) == expected


# --------------------------------------------------------------------------- #
# Files from older formats are refused, not migrated
# --------------------------------------------------------------------------- #
def _write_legacy(path, version, sidecars=None, **members):
    """The minimal shape of a file written before the flat-array codec:
    a v1 base / ``rep_<i>`` segment (per-table JSON + ``rep_0``) or a v2 base
    (metadata arrays + reps/colemb/codes sidecars, no q8)."""
    rep = np.zeros((1, 2, 16))
    table = {"table_id": "t", "column_names": ["y"], "column_ranges": [[0.0, 1.0]]}
    meta = {
        "version": version,
        "embed_dim": 16,
        "dtype": "float64",
        "lsh": {"num_bits": 6, "hamming_radius": 1, "seed": 0},
    }
    if version == 1:
        meta.update(tables=[dict(table, codes=[3])], intervals=[], **members)
        members = {"rep_0": rep}
    else:
        meta.update(generation=1, num_tables=1, sidecars={})
        for kind, flat in sidecars.items():
            name = f"{path.stem}.g0001.{kind}.npy"
            np.save(path.parent / name, flat)
            meta["sidecars"][kind] = {"file": name, "elements": int(flat.size)}
    raw = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, __meta__=raw, **members)
    return path


class TestLegacyFilesRejected:
    REMEDY = "rebuild the index"

    def _assert_rejected(self, call, file_name, version):
        with pytest.raises(SnapshotError) as caught:
            call()
        message = str(caught.value)
        assert file_name in message
        assert f"version {version}" in message
        assert self.REMEDY in message

    def _every_entry_point(self, model, path, live_service):
        return [
            lambda: load_processor(model, path),
            lambda: load_processor(model, path, mmap=True),
            lambda: snapshot_encodings(path, mmap=True),
            lambda: save_processor(live_service.processor, path, append=True),
        ]

    def test_v1_base(self, rt_model, tmp_path):
        path = _write_legacy(tmp_path / "index.npz", 1)
        service = _build_service(rt_model, _corpus(1))
        calls = self._every_entry_point(rt_model, path, service)
        for call in calls + [lambda: compact_snapshot(path)]:
            self._assert_rejected(call, "index.npz", 1)

    def test_rep_member_segment(self, rt_model, tmp_path):
        service = _build_service(rt_model, _corpus(2))
        path = save_processor(service.processor, tmp_path / "index.npz")
        segment = _write_legacy(
            tmp_path / "index.seg-0001.npz", 1, kind="segment", tombstones=[]
        )
        calls = self._every_entry_point(rt_model, path, service)
        for call in calls + [lambda: compact_snapshot(path)]:
            self._assert_rejected(call, segment.name, 1)

    def test_v2_base_without_q8_sidecars(self, rt_model, tmp_path):
        path = _write_legacy(
            tmp_path / "index.npz",
            2,
            sidecars={
                "reps": np.zeros(32),
                "colemb": np.zeros(16),
                "codes": np.array([3], dtype=np.uint64),
            },
            table_ids=np.array(["t"]),
            fingerprints=np.array([""]),
        )
        service = _build_service(rt_model, _corpus(1))
        calls = self._every_entry_point(rt_model, path, service)
        for call in calls + [lambda: compact_snapshot(path)]:
            self._assert_rejected(call, "index.npz", 2)


# --------------------------------------------------------------------------- #
# Version-3 files that still carry derived arrays load; rewrites collect them
# --------------------------------------------------------------------------- #
def _with_derived_arrays(path, processor):
    """Rewrite one base or segment in the layout of the builds that also
    stored what ``reps`` and ``colemb`` determine: the LSH codes (``uint64``,
    per-table offsets and counts) and an int8 copy of ``reps`` with one
    float64 scale per table — base sidecars, or a segment's inline members."""

    def mutate(meta, arrays):
        ids = arrays["table_ids"].tolist()
        codes = [processor.lsh.export_codes()[table_id] for table_id in ids]
        copies = [quantize_table(processor.scorer.encoded_table(t).representations) for t in ids]
        counts = np.array([len(table) for table in codes], dtype=np.int64)
        arrays["codes_offsets"], arrays["codes_counts"] = np.cumsum(counts) - counts, counts
        derived = {
            "codes": np.array([code for table in codes for code in table], dtype=np.uint64),
            "q8": np.concatenate([copy.codes.ravel() for copy in copies]),
            "qscale": np.array([copy.scale for copy in copies], dtype=np.float64),
        }
        if meta.get("kind") == "segment":
            arrays.update(derived)
            return
        for kind, flat in derived.items():
            name = f"{path.stem}.g{meta['generation']:04d}.{kind}.npy"
            np.save(path.parent / name, flat)
            meta["sidecars"][kind] = {"file": name, "elements": int(flat.size)}

    _tamper(path, mutate)


class TestDerivedArraysOfOlderBuilds:
    @pytest.mark.parametrize("rewrite", ["save", "compact"])
    def test_they_are_ignored_and_a_rewrite_collects_their_sidecars(
        self, rt_model, tmp_path, monkeypatch, rewrite
    ):
        service, path = _segmented_snapshot(rt_model, tmp_path)
        config = dict(lsh_config=LSHConfig(num_bits=6, hamming_radius=1))
        untampered = SearchService.load_index(rt_model, path, ServingConfig(**config))
        for archive in [path] + snapshot_segments(path):
            _with_derived_arrays(archive, service.processor)

        def kinds():
            return sorted(p.name.split(".")[-2] for _, p in persistence._sidecar_files(path))

        assert kinds() == ["codes", "colemb", "q8", "qscale", "reps"]
        opened, member = [], persistence._archive_member
        monkeypatch.setattr(
            persistence,
            "_archive_member",
            lambda archive, name, where: opened.append(name) or member(archive, name, where),
        )
        charts = list(synth_query_charts(_synth_config(5), 3, spec=rt_model.config.chart_spec))
        for mmap in (False, True):
            loaded = SearchService.load_index(
                rt_model, path, ServingConfig(mmap_index=mmap, **config)
            )
            assert _processor_state(loaded.processor) == _processor_state(service.processor)
            for _, chart in charts:
                for strategy in ("none", "hybrid"):
                    assert (
                        loaded.query(chart, k=5, strategy=strategy).ranking
                        == untampered.query(chart, k=5, strategy=strategy).ranking
                    )
        derived = {"codes", "q8", "qscale", "codes_offsets", "codes_counts"}
        assert "reps" in opened and not derived.intersection(opened)  # never opened
        if rewrite == "save":
            save_processor(service.processor, path)
        else:
            compact_snapshot(path)
        assert kinds() == ["colemb", "reps"] and snapshot_segments(path) == []
        _assert_loaded_identical(rt_model, path, service, mmap=True)


# --------------------------------------------------------------------------- #
# Corruption reporting
# --------------------------------------------------------------------------- #
class TestCorruptionErrors:
    def _snapshot(self, model, tmp_path):
        service = _build_service(model, _corpus(3))
        return save_processor(service.processor, tmp_path / "index.npz")

    def test_snapshot_error_is_a_value_error(self):
        assert issubclass(SnapshotError, ValueError)

    def test_missing_snapshot_reports_path(self, rt_model, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot archive"):
            load_processor(rt_model, tmp_path / "nope.npz")
        with pytest.raises(SnapshotError, match="no snapshot archive"):
            compact_snapshot(tmp_path / "nope.npz")

    def test_truncated_base_archive(self, rt_model, tmp_path):
        path = self._snapshot(rt_model, tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(SnapshotError, match="truncated or corrupt"):
            load_processor(rt_model, path)

    def test_garbage_base_archive(self, rt_model, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this was never an npz archive")
        with pytest.raises(SnapshotError):
            load_processor(rt_model, path)

    def test_npz_without_meta_entry(self, rt_model, tmp_path):
        path = tmp_path / "alien.npz"
        np.savez(path, payload=np.arange(3))
        with pytest.raises(SnapshotError, match="__meta__"):
            load_processor(rt_model, path)

    def test_missing_sidecar_names_the_file(self, rt_model, tmp_path):
        path = self._snapshot(rt_model, tmp_path)
        victim = persistence._sidecar_files(path)[0][1]
        victim.unlink()
        with pytest.raises(SnapshotError, match=victim.name):
            load_processor(rt_model, path)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_truncated_sidecar_detected_under_both_load_modes(
        self, rt_model, tmp_path, mmap
    ):
        path = self._snapshot(rt_model, tmp_path)
        reps = next(
            p
            for _, p in persistence._sidecar_files(path)
            if p.name.endswith(".reps.npy")
        )
        raw = reps.read_bytes()
        reps.write_bytes(raw[: len(raw) - active_dtype().itemsize * 7])
        with pytest.raises(SnapshotError, match="truncated|corrupt"):
            load_processor(rt_model, path, mmap=mmap)

    def test_sidecar_dtype_mismatch_detected(self, rt_model, tmp_path):
        path = self._snapshot(rt_model, tmp_path)
        colemb = next(
            p
            for _, p in persistence._sidecar_files(path)
            if p.name.endswith(".colemb.npy")
        )
        flat = np.load(colemb)
        other = np.float32 if flat.dtype == np.float64 else np.float64
        np.save(colemb.with_suffix(""), flat.astype(other))
        with pytest.raises(SnapshotError, match=rf"{path.name}.*'colemb'.*dtype"):
            load_processor(rt_model, path)

    def test_unsupported_version_rejected(self, rt_model, tmp_path):
        path = self._snapshot(rt_model, tmp_path)
        _tamper(path, lambda meta, arrays: meta.update(version=99))
        with pytest.raises(SnapshotError, match="unsupported snapshot version 99"):
            load_processor(rt_model, path)

    def test_missing_header_field_is_not_a_key_error(self, rt_model, tmp_path):
        path = self._snapshot(rt_model, tmp_path)
        _tamper(path, lambda meta, arrays: meta.pop("lsh"))
        with pytest.raises(SnapshotError, match="'lsh'"):
            load_processor(rt_model, path)

    # The same decoder reads a base's metadata arrays and a segment's inline
    # arrays, so every structural check must fire on either, naming the file.
    @pytest.fixture(params=["base", "segment"])
    def victim(self, request, rt_model, tmp_path):
        _, path = _segmented_snapshot(rt_model, tmp_path)
        target = path if request.param == "base" else snapshot_segments(path)[0]
        return path, target

    def _assert_load_fails(self, model, victim, pattern):
        path, target = victim
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match=pattern) as caught:
                load_processor(model, path, mmap=mmap)
            assert target.name in str(caught.value)
        with pytest.raises(SnapshotError, match=pattern):
            snapshot_encodings(path, mmap=True)

    def test_missing_metadata_array_detected(self, rt_model, victim):
        _tamper(victim[1], lambda meta, arrays: arrays.pop("column_offsets"))
        self._assert_load_fails(rt_model, victim, "column_offsets")

    def test_offsets_past_end_detected(self, rt_model, victim):
        def mutate(meta, arrays):
            arrays["rep_offsets"] = arrays["rep_offsets"].copy()
            arrays["rep_offsets"][-1] = 10**9

        _tamper(victim[1], mutate)
        self._assert_load_fails(rt_model, victim, "points past the end")

    def test_disagreeing_counts_detected(self, rt_model, victim):
        def mutate(meta, arrays):
            arrays["colemb_offsets"] = arrays["colemb_offsets"][:-1]

        _tamper(victim[1], mutate)
        self._assert_load_fails(rt_model, victim, "disagree")

    # Interval rows are validated at restore: a NaN bound overlaps no query
    # and would drop its table from every interval candidate set, an
    # inverted row used to escape as a bare ValueError.  An infinite bound
    # is legal (``TestInfiniteIntervalBounds``).  The lean worker path never
    # reads them.
    @pytest.mark.parametrize(
        "row, pattern",
        [
            ((np.nan, np.nan), "interval row"),
            ((np.nan, 1.0), "interval row"),
            ((0.0, np.nan), "interval row"),
            ((2.0, 1.0), "interval row"),
            (None, "does not record"),
        ],
        ids=["nan", "nan-low", "nan-high", "inverted", "unknown-table"],
    )
    def test_bad_interval_row_detected(self, rt_model, victim, row, pattern):
        def mutate(meta, arrays):
            if row is None:
                names = arrays["interval_table_ids"].tolist()
                names[0] = "never-recorded"
                arrays["interval_table_ids"] = np.array(names)
            else:
                arrays["interval_bounds"] = arrays["interval_bounds"].copy()
                arrays["interval_bounds"][0] = row

        path, target = victim
        _tamper(target, mutate)
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match=pattern) as caught:
                load_processor(rt_model, path, mmap=mmap)
            assert target.name in str(caught.value)
        with pytest.raises(SnapshotError, match=pattern):
            compact_snapshot(path)
        assert len(snapshot_encodings(path, mmap=True)) == 5

    # A shape no encoder produces used to load and then fail every query
    # with a raw NumPy error (a reshape of size 0, a matmul width mismatch).
    @pytest.mark.parametrize("fault", ["zero-segments", "wrong-width"])
    def test_impossible_table_shape_detected(self, rt_model, victim, fault):
        first = read_archive(victim[1])[1]["table_ids"].tolist()[0]

        def mutate(meta, arrays):
            shapes = arrays["rep_shapes"].copy()
            if fault == "zero-segments":
                shapes[0, 1] = 0
            else:
                shapes[0, 2] *= 2
            arrays["rep_shapes"] = shapes

        _tamper(victim[1], mutate)
        self._assert_load_fails(rt_model, victim, rf"{re.escape(repr(first))} records shape")

    @pytest.mark.parametrize("kind", persistence._FLAT_KINDS)
    def test_short_or_missing_sidecar_of_each_kind(self, rt_model, tmp_path, kind):
        path = self._snapshot(rt_model, tmp_path)
        sidecar = next(
            p for _, p in persistence._sidecar_files(path) if p.name.endswith(f".{kind}.npy")
        )
        np.save(sidecar, np.load(sidecar)[:3])
        with pytest.raises(SnapshotError, match=rf"{kind}\.npy is truncated"):
            load_processor(rt_model, path)
        sidecar.unlink()
        with pytest.raises(SnapshotError, match=re.escape(sidecar.name)):
            load_processor(rt_model, path)

    def test_segment_missing_flat_array_detected(self, rt_model, tmp_path):
        _, path = _segmented_snapshot(rt_model, tmp_path)
        segment = snapshot_segments(path)[0]
        _tamper(segment, lambda meta, arrays: arrays.pop("colemb"))
        self._assert_load_fails(rt_model, (path, segment), "'colemb'")

    def test_segment_flat_array_dtype_mismatch_detected(self, rt_model, tmp_path):
        _, path = _segmented_snapshot(rt_model, tmp_path)
        segment = snapshot_segments(path)[0]

        def mutate(meta, arrays):
            other = np.float32 if arrays["reps"].dtype == np.float64 else np.float64
            arrays["reps"] = arrays["reps"].astype(other)

        _tamper(segment, mutate)
        self._assert_load_fails(rt_model, (path, segment), "dtype")

    def test_segment_short_colemb_detected(self, rt_model, tmp_path):
        _, path = _segmented_snapshot(rt_model, tmp_path)
        segment = snapshot_segments(path)[0]

        def mutate(meta, arrays):
            arrays["colemb"] = arrays["colemb"][:-1]

        _tamper(segment, mutate)
        self._assert_load_fails(rt_model, (path, segment), "end of the colemb array")


# --------------------------------------------------------------------------- #
# Streaming: segment-granular deltas and the streams registry
# --------------------------------------------------------------------------- #
class TestStreamingSnapshots:
    """Streams persist at *segment* granularity: the persisted ids are the
    window segments (plus statics), the streams registry in the meta maps
    parents back to their windows, and an append-only save after a tail
    ingest carries only the dirty windows — all byte-identical on restore,
    including the coarse rows derived from the encodings."""

    WINDOW = 32

    def _stream_service(self, model, tables):
        service = SearchService(
            model,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
                streaming=StreamingConfig(segment_rows=self.WINDOW),
            ),
        )
        service.build(tables)
        return service

    def _append(self, service, size, start, seed=0):
        rng = np.random.default_rng(seed + start)
        rows = {
            "x": np.arange(start, start + size, dtype=float),
            "y": np.cumsum(rng.normal(0.0, 1.0, size)),
        }
        return service.append_rows(
            "live", rows, roles={"x": "x"} if start == 0 else None
        )

    def _stream_state(self, processor):
        """Persisted bytes: every segment + static, plus the registry.

        The coarse rows are compared through the coarse pack, i.e. as the
        row the pre-filter actually scores with.
        """
        pack = processor.scorer.coarse_pack()
        codes = processor.lsh.export_codes()
        tables = {}
        for table_id in processor.persisted_table_ids:
            encoded = processor.scorer.encoded_table(table_id)
            position = pack.index[table_id]
            bucket, row = pack.buckets[pack.bucket_of[position]], pack.row_of[position]
            tables[table_id] = (
                np.ascontiguousarray(encoded.representations).tobytes(),
                np.ascontiguousarray(encoded.column_embeddings).tobytes(),
                tuple(encoded.column_names),
                tuple(codes.get(table_id, ())),
                bucket.keys[..., row].tobytes(),
                bucket.values[..., row].tobytes(),
            )
        streams = {}
        for parent, segments in processor.streams.items():
            state = processor.stream_states[parent]
            streams[parent] = (
                tuple(segments),
                int(state["total_rows"]),
                int(state["segment_rows"]),
                tuple(state["column_names"]),
                tuple(sorted(state["roles"].items())),
                tuple(
                    (name, np.asarray(vals, dtype=np.float64).tobytes())
                    for name, vals in sorted(state["tail"].items())
                ),
            )
        return tables, streams

    def test_stream_round_trip_is_byte_identical(self, rt_model, tmp_path):
        service = self._stream_service(rt_model, _corpus(3))
        self._append(service, 48, 0)
        self._append(service, 30, 48)
        path = save_processor(service.processor, tmp_path / "index.npz")
        for mmap in (False, True):
            loaded = load_processor(rt_model, path, mmap=mmap)
            assert self._stream_state(loaded) == self._stream_state(
                service.processor
            )

    def test_append_segment_carries_only_dirty_windows(self, rt_model, tmp_path):
        from repro.serving import segment_table_id

        service = self._stream_service(rt_model, _corpus(2))
        self._append(service, 70, 0)  # windows 0, 1, 2 (tail of 6 rows)
        path = save_processor(service.processor, tmp_path / "index.npz")
        self._append(service, 10, 70)  # dirty: window 2 only
        segment_path = save_processor(service.processor, path, append=True)
        assert segment_path != path
        meta, arrays = read_archive(segment_path)
        assert arrays["table_ids"].tolist() == [segment_table_id("live", 2)]
        assert meta["tombstones"] == [segment_table_id("live", 2)]
        assert meta["streams"]["live"]["total_rows"] == 80
        loaded = load_processor(rt_model, path)
        assert self._stream_state(loaded) == self._stream_state(service.processor)

    def test_compaction_folds_stream_segments(self, rt_model, tmp_path):
        service = self._stream_service(rt_model, _corpus(2))
        self._append(service, 70, 0)
        path = save_processor(service.processor, tmp_path / "index.npz")
        self._append(service, 26, 70)
        save_processor(service.processor, path, append=True)
        assert compact_snapshot(path) == path
        assert snapshot_segments(path) == []
        mapped = load_processor(rt_model, path, mmap=True)
        assert self._stream_state(mapped) == self._stream_state(service.processor)

    def test_restored_stream_resumes_appending(self, rt_model, tmp_path):
        service = self._stream_service(rt_model, _corpus(2))
        self._append(service, 48, 0)
        path = save_processor(service.processor, tmp_path / "index.npz")
        loaded_service = SearchService.load_index(
            rt_model,
            path,
            ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
        )
        ours = self._append(service, 20, 48)
        theirs = self._append(loaded_service, 20, 48)
        assert theirs.total_rows == ours.total_rows == 68
        assert theirs.dirty_segments == ours.dirty_segments
        assert self._stream_state(loaded_service.processor) == self._stream_state(
            service.processor
        )

    def test_missing_stream_segment_is_structured_error(self, rt_model, tmp_path):
        service = self._stream_service(rt_model, _corpus(1))
        self._append(service, 40, 0)
        path = save_processor(service.processor, tmp_path / "index.npz")
        _tamper(
            path,
            lambda meta, arrays: meta["streams"]["live"]["segments"].append(
                "live::seg-000099"
            ),
        )
        with pytest.raises(SnapshotError, match="seg-000099"):
            load_processor(rt_model, path)


if __name__ == "__main__":
    import subprocess
    import tempfile

    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=Path(persistence.__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as written:
        answers = write_snapshot_fixture(Path(written))
        shutil.rmtree(SNAPSHOT_FIXTURE, ignore_errors=True)
        shutil.copytree(written, SNAPSHOT_FIXTURE)
    record = {"recorded_at": revision, "answers": answers}
    (SNAPSHOT_FIXTURE / "answers.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {SNAPSHOT_FIXTURE} at {revision}")
