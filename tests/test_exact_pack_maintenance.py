"""The index-wide packs under writes: maintained row by row, equal to a rebuild.

A write advances the index to a new generation (``FCMScorer.advance``), and
neither pack a generation holds — the exact pack and the pre-filter's pack
of coarse rows, stream segments included — is dropped when a table is
added, removed or appended to: the write re-projects the rows that changed
and splices them into their ``(NC, N2)`` bucket.  The contract pinned here:

* after *any* interleaving of ``add_tables`` / ``remove_tables`` /
  ``append_rows`` (stream creation, tail appends, appends that open a new
  window and so move the parent to another bucket) / re-adding an id with
  different content / dropping a stream / an optimiser step on the head
  alone or on ``key_proj``, each held pack equals ``build_exact_pack`` over
  the same entries **array for array** — ``keys`` / ``values`` / ``lows`` /
  ``highs`` of every bucket, ``index`` / ``bucket_of`` / ``row_of`` — and
  its scores equal those of a scorer built afterwards, bitwise;
* only a ``key_proj`` step is a from-scratch build, and exactly one row is
  projected per added or changed entry: a one-table add is one row of each
  pack, a tail append one exact row (the parent) and two coarse rows (the
  window and its parent);
* buckets no write touched keep their arrays by reference;
* no generation changes once a later one is made: its ids, entries, packs,
  interval rows and LSH buckets stay what they were while it was current.

Runs under both precision policies (``REPRO_DTYPE``); the examples are
derandomised, so a failure reproduces.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMConfig, FCMModel
from repro.fcm.fastpath import (
    PREFILTER_DTYPE,
    build_exact_pack,
    exact_pack_scores,
    update_exact_pack,
)
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig, StreamingConfig

from conftest import assert_exact_pack_is_a_rebuild, copy_scorer, scorer_count

WINDOW = 32
#: Static tables the interleavings draw from.  Two lengths and one or two
#: value columns give four shapes, so buckets hold several rows and an add
#: or a remove lands at the front, the middle and the back of one.
POOL_SIZE = 14
INITIAL = 6
STREAMS = ("stream-a", "stream-b")


def _table(table_id: str, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    n = (64, 128)[seed % 2]
    columns = [Column("x", np.arange(n, dtype=float), role="x")]
    for c in range(1 + (seed // 2) % 2):
        columns.append(
            Column(
                f"y{c}",
                4.0 * rng.standard_normal() + np.cumsum(rng.standard_normal(n)),
                role="y",
            )
        )
    return Table(table_id, columns)


@pytest.fixture(scope="module")
def model():
    return FCMModel(
        FCMConfig(
            embed_dim=16,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            beta=2,
            max_data_segments=4,
        )
    )


@pytest.fixture(scope="module")
def pool():
    return [_table(f"tbl{i:02d}", i) for i in range(POOL_SIZE)]


@pytest.fixture(scope="module")
def chart(pool):
    return render_chart_for_table(pool[2], ["y0", "y1"], x_column="x", spec=ChartSpec())


def _service(model, tables) -> SearchService:
    service = SearchService(
        model,
        ServingConfig(
            lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
            streaming=StreamingConfig(segment_rows=WINDOW),
            result_cache_size=0,
        ),
    )
    service.build(tables)
    return service


def _scan(scorer, chart):
    """An exhaustive scan that reads the index-wide pack whatever the
    repository's size (two ids are already more than one batch of one)."""
    return scorer.score_chart_batch(chart, batch_size=1)


def _coarse_ids(scorer):
    return sorted([*scorer.generation.encoded, *scorer.generation.streams])


def _coarse_scan(scorer, chart_repr):
    """The coarse pass over every entry of the coarse pack, in pack order."""
    return exact_pack_scores(
        scorer._fused_kernel(), scorer.coarse_pack(), chart_repr, None, (0.0, 1.0), 0.0, exact=False
    )


def _projected(pack, before) -> int:
    """Rows projected into ``pack`` since ``before``, the pack held then
    (every row when there was none)."""
    if before is None:
        return len(pack.index)
    return int((pack.born > before.generation).sum())


def _same_pack(ours, theirs) -> None:
    assert (ours is None) == (theirs is None)
    if ours is None:
        return
    assert list(ours.index.items()) == list(theirs.index.items())
    assert ours.generation == theirs.generation
    for name in ("bucket_of", "row_of", "order", "counts", "rows", "born"):
        np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))
    assert len(ours.buckets) == len(theirs.buckets)
    for a, b in zip(ours.buckets, theirs.buckets):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def _assert_unchanged(generation, frozen) -> None:
    """``generation`` holds what ``frozen``, a deep copy of it taken while
    it was current, holds: ids, entries, families, packs, interval rows and
    LSH buckets."""
    assert generation.scorable[1] == frozen.scorable[1]
    assert generation.scorable[0] == frozen.scorable[0]
    assert list(generation.encoded) == list(frozen.encoded)
    for table_id, entry in frozen.encoded.items():
        np.testing.assert_array_equal(generation.encoded[table_id].representations, entry.representations)
    assert {p: f.segments for p, f in generation.streams.items()} == {
        p: f.segments for p, f in frozen.streams.items()
    }
    _same_pack(generation.packs.exact, frozen.packs.exact)
    _same_pack(generation.packs.coarse, frozen.packs.coarse)
    assert generation.intervals.intervals == frozen.intervals.intervals
    assert generation.lsh.buckets == frozen.lsh.buckets
    assert generation.lsh.export_codes() == frozen.lsh.export_codes()


OPS = (
    "add",
    "remove",
    "readd",
    "append",
    "append_window",
    "drop_stream",
    "scan",
    "head_step",
    "key_proj_step",
)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=2**16)),
        min_size=4,
        max_size=12,
    )
)
def test_any_interleaving_leaves_the_from_scratch_pack(model, pool, chart, ops):
    local = FCMModel(model.config)  # the weight steps stay in this example
    service = _service(local, pool[:INITIAL])
    scorer = service.scorer
    _scan(scorer, chart)
    chart_repr = scorer.encode_query(scorer.prepare_query(chart)).astype(PREFILTER_DTYPE)
    _coarse_scan(scorer, chart_repr)
    assert scorer_count(scorer, "exact_pack_builds") == 1
    assert scorer_count(scorer, "exact_pack_rows_projected") == INITIAL
    spare = list(pool[INITIAL:])
    rows = {stream_id: 0 for stream_id in STREAMS}
    expected_rows, expected_coarse = INITIAL, 0
    builds, rebuild = 1, False
    # Every generation made so far, with a deep copy taken while it was current.
    history = {}

    def remember():
        history[scorer.generation.number] = (scorer.generation, copy.deepcopy(scorer.generation))

    def append(stream_id, count, seed):
        rng = np.random.default_rng(seed)
        start = rows[stream_id]
        service.append_rows(
            stream_id,
            {
                "x": np.arange(start, start + count, dtype=float),
                "y": np.cumsum(rng.standard_normal(count)),
            },
            roles=None if start else {"x": "x"},
        )
        rows[stream_id] = start + count
        # Every window the batch wrote, and the parent.
        return (start + count - 1) // WINDOW - start // WINDOW + 2

    remember()
    for op, seed in ops:
        listed = scorer.generation.scorable[1]
        coarse_before = scorer.generation.packs.coarse
        static = sorted(set(service.table_ids) - set(STREAMS))
        changed = coarse = 0  # entries this op adds or changes, per pack
        if op == "add" and spare:
            service.add_tables([spare.pop(seed % len(spare))])
            changed = coarse = 1
        elif op == "remove" and len(static) > 2:
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            spare.append(next(t for t in pool if t.table_id == victim))
        elif op == "readd" and static:
            # The same id with other content — and, one time in two, another
            # shape, so the row moves bucket.
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            service.add_tables([_table(victim, 1000 + seed)])
            changed = coarse = 1
        elif op == "append":
            # Creates the stream, or grows its tail window.
            stream_id = STREAMS[seed % 2]
            room = WINDOW - rows[stream_id] % WINDOW
            changed, coarse = 1, append(stream_id, 1 + seed % max(room - 1, 1), seed)
            assert coarse == 2  # the window and its parent
        elif op == "append_window":
            # Always opens at least one new window: N2 grows.  Half the time
            # the batch ends on a window boundary, so that the next append
            # re-encodes no segment the stream already has.
            stream_id = STREAMS[seed % 2]
            room = WINDOW - rows[stream_id] % WINDOW
            count = room + WINDOW if seed % 4 < 2 else WINDOW + seed % WINDOW
            changed, coarse = 1, append(stream_id, count, seed)
        elif op == "drop_stream":
            stream_id = STREAMS[seed % 2]
            if rows[stream_id]:
                service.remove_tables([stream_id])
                rows[stream_id] = 0
        elif op == "scan":
            _scan(scorer, chart)
        elif op == "head_step":  # moves the weights version, no projection
            for parameter in local.matcher.head.parameters():
                parameter.data *= 1.0 + 1e-3 * (1 + seed % 7)
        elif op == "key_proj_step":  # every row of both packs is stale
            local.matcher.segment_level.key_proj.weight.data *= 1.0 + 1e-3 * (1 + seed % 7)
            rebuild = True
        # The scorable list is the same object exactly when no id moved (a
        # re-add is two writes: the id leaves, then enters).
        ids, now = sorted(scorer.indexed_table_ids), scorer.generation.scorable[1]
        assert now == ids and (now is listed) == (ids == listed and op != "readd"), op
        for generation, frozen in history.values():
            if generation is not scorer.generation:
                _assert_unchanged(generation, frozen)
        # Odd seeds read no pack after the op, so the next op's writes
        # advance packs no read has settled since a weight step.
        if seed % 2 and op != "scan":
            expected_rows = expected_coarse = None
            remember()
            continue
        before = scorer_count(scorer, "exact_pack_rows_projected")
        held = scorer.exact_pack()
        if rebuild:
            builds, rebuild = builds + 1, False
            changed, coarse = len(held.index), len(_coarse_ids(scorer))
        assert_exact_pack_is_a_rebuild(scorer, held)
        if expected_rows is not None:
            assert scorer_count(scorer, "exact_pack_rows_projected") == expected_rows + changed
        assert scorer_count(scorer, "exact_pack_rows_projected") - before <= len(held.index)
        expected_rows = scorer_count(scorer, "exact_pack_rows_projected")
        coarse_held = scorer.coarse_pack()
        entries = scorer._coarse_entries(_coarse_ids(scorer), scorer.generation)
        assert_exact_pack_is_a_rebuild(scorer, coarse_held, entries)
        if expected_coarse is not None:
            assert _projected(coarse_held, coarse_before) == coarse, op
        expected_coarse = 0
        afterwards = copy_scorer(scorer, reversed(list(scorer.generation.encoded)))
        assert _scan(scorer, chart) == _scan(afterwards, chart)
        np.testing.assert_array_equal(
            _coarse_scan(scorer, chart_repr), _coarse_scan(afterwards, chart_repr)
        )
        remember()
    assert_exact_pack_is_a_rebuild(scorer)
    # Everything after the first build is rows, but for ``key_proj`` steps.
    assert scorer_count(scorer, "exact_pack_builds") == builds + rebuild


def test_untouched_buckets_are_shared_and_touched_ones_exact_size(model, pool, chart):
    service = _service(model, pool[:INITIAL])
    scorer = service.scorer
    _scan(scorer, chart)
    before = scorer.exact_pack()
    added = pool[INITIAL]
    service.add_tables([added])
    after = scorer.exact_pack()
    assert after is not before and len(after.index) == len(before.index) + 1
    grown = after.bucket_of[after.index[added.table_id]]
    by_shape = {bucket.shape: bucket for bucket in before.buckets}
    for number, bucket in enumerate(after.buckets):
        old = by_shape.get(bucket.shape)
        if number == grown:
            assert bucket.rows == (old.rows if old else 0) + 1
            assert all(array.base is None for array in bucket)  # own, exact size
        else:
            assert all(a is b for a, b in zip(bucket, old))
    # A read with nothing written hands the same object back.
    assert scorer.exact_pack() is after
    # Removing the only row of a bucket makes the bucket disappear.
    lonely = [
        table_id
        for table_id, position in after.index.items()
        if after.buckets[after.bucket_of[position]].rows == 1
    ]
    if lonely:
        service.remove_tables(lonely[:1])
        assert len(scorer.exact_pack().buckets) == len(after.buckets) - 1
        assert_exact_pack_is_a_rebuild(scorer)


def test_update_rejects_an_id_it_was_given_no_row_for(model, pool, chart):
    service = _service(model, pool[:INITIAL])
    scorer = service.scorer
    pack = scorer.exact_pack()
    ids = sorted(scorer.indexed_table_ids)
    with pytest.raises(KeyError):
        update_exact_pack(scorer._fused_kernel(), pack, ids + ["zzz"], [])
    # Dropping every id is the empty pack, not an error.
    empty = update_exact_pack(scorer._fused_kernel(), pack, [], [])
    assert empty.buckets == () and empty.index == {} and empty.nbytes == 0
    rebuilt = build_exact_pack(scorer._fused_kernel(), [])
    assert rebuilt.buckets == () and rebuilt.index == {} and rebuilt.nbytes == 0


def test_weight_change_still_rebuilds_from_scratch(model, pool, chart):
    local = FCMModel(model.config)
    service = _service(local, pool[:INITIAL])
    scorer = service.scorer
    _scan(scorer, chart)
    service.add_tables([pool[INITIAL]])
    seg = local.matcher.segment_level
    seg.key_proj.weight.data[...] = (
        np.random.default_rng(0)
        .standard_normal(seg.key_proj.weight.data.shape)
        .astype(seg.key_proj.weight.data.dtype)
    )
    scorer.exact_pack()
    assert scorer_count(scorer, "exact_pack_builds") == 2
    # The build, the add's row when it was written, then the rebuild.
    assert scorer_count(scorer, "exact_pack_rows_projected") == INITIAL + 1 + INITIAL + 1
    assert_exact_pack_is_a_rebuild(scorer)
