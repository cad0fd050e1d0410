"""Rows, not names: the array plumbing against what the name-keyed one did.

Between the hybrid index and the top-k a candidate set is an array of rows
in sorted-id order; nothing re-keys it by table id.  What that must not move:

* **Recorded goldens** — ``fixtures/rankings.json``
  holds, for a fixed repository (320 static tables in nine shapes, twenty of
  them duplicated so exact score ties occur, three streams with sealed and
  tail windows), every ``(chart, strategy, prefilter on/off)`` top-10 as ids
  and ``float.hex`` scores with ``QueryResult.candidates`` / ``prefiltered``;
  ``fixtures/subscription_events.json`` holds every field of every
  :class:`SubscriptionEvent` of a scripted ingest (appends that dirty 1, 2
  and more than ``k * notify_overscan`` segments, a subscription added
  mid-stream, a weight change between two batches) in delivery order.  Both
  were first written by running the commit before the array plumbing and
  re-recorded when the batched build and later the build's folded
  DA layers moved the encodings' last bits:
  ``python tests/test_rows_parity.py`` (``PYTHONPATH`` pointing at the ``src``
  of the implementation to record from) refuses to replace a recording
  unless everything but the score bits is equal to it and every score is
  within 1e-12 (``conftest.assert_equal_but_score_bits``).  The recorded
  bits are float64's, so the golden tests run under that policy only.
* **Properties** (derandomised, both precision policies) — the LSH-first
  hybrid candidate set is ``interval & lsh``; the array top-k is the dict
  sort's; a full scan recognised by identity scores what the slow path
  scores, after every kind of write, and the generation a write replaced
  still scans to the bits it scanned to while current; the scan plan a pack
  carries is the plan ``exact_pack_scores`` derives.
* **Call shapes** — a recognised full scan builds no ``set`` / ``fromiter`` /
  ``lexsort``; ``notify`` encodes no chart and builds one pack per batch.
"""

from __future__ import annotations

import builtins
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.charts import render_chart_for_table
from repro.data import Column, SynthConfig, Table, synth_table
from repro.fcm import FCMConfig, FCMModel
from repro.index import INDEXING_STRATEGIES, LSHConfig
from repro.serving import SearchService, ServingConfig, StreamingConfig

from conftest import (
    active_dtype,
    assert_equal_but_score_bits,
    assert_exact_pack_is_a_rebuild,
    copy_scorer,
    dtype_tol,
    scorer_count,
)

FIXTURES = Path(__file__).parent / "fixtures"
RANKINGS = FIXTURES / "rankings.json"
EVENTS = FIXTURES / "subscription_events.json"
K = 10
WINDOW = 64
#: Coarse survivors of the pre-filtered golden queries (``prefilter_keep``).
KEEP = 40
LSH = LSHConfig(num_bits=6, hamming_radius=1)


def _tiny_config() -> FCMConfig:
    return FCMConfig(
        embed_dim=16,
        num_heads=2,
        num_layers=1,
        data_segment_size=32,
        beta=2,
        max_data_segments=4,
    )


def _corpus(rows: int) -> SynthConfig:
    return SynthConfig(300, num_rows=rows, max_columns=3, num_clusters=8, seed=21)


#: ``(num_rows, first table index)`` per slice of the golden repository: 100
#: tables each of 2, 3 and 4 data segments, 1-3 columns — nine shapes.
GOLDEN_SLICES = ((48, 0), (80, 100), (160, 200))


def golden_tables():
    tables = [
        synth_table(index, _corpus(rows))
        for rows, first in GOLDEN_SLICES
        for index in range(first, first + 100)
    ]
    # Every fifteenth table again under another id: equal encodings, so
    # equal scores, so the ranking's tie-break is exercised.
    copies = [Table(f"copy_of_{t.table_id}", t.columns) for t in tables[::15]]
    return tables + copies


def _stream_source(stream: int, rows: int = 200) -> Table:
    return synth_table(stream, SynthConfig(3, num_rows=rows, max_columns=2, seed=22))


def _rows(table: Table, start: int, stop: int):
    return {c.name: np.asarray(c.values)[start:stop] for c in table.columns}


def _service(model, tables, **streaming) -> SearchService:
    service = SearchService(
        model,
        ServingConfig(
            lsh_config=LSH,
            result_cache_size=0,
            streaming=StreamingConfig(segment_rows=WINDOW, **streaming),
        ),
    )
    service.build(tables)
    return service


def golden_service(model) -> SearchService:
    """The golden repository: static tables plus three streams appended in
    two batches each (three sealed windows and an 8-row tail)."""
    service = _service(model, golden_tables())
    for stream in range(3):
        source = _stream_source(stream)
        service.append_rows(f"stream_{stream}", _rows(source, 0, 150))
        service.append_rows(f"stream_{stream}", _rows(source, 150, 200))
    return service


def golden_charts(model):
    """``(name, chart)``: static tables of every size, duplicated ones (so
    the top of the ranking ties) and the rows of two streams."""
    tables = golden_tables()
    drawn = [tables[i] for i in (0, 15, 45, 100, 135, 210, 255, 299)]
    drawn += [Table(f"stream_{s}", _stream_source(s).columns) for s in (0, 2)]
    return [
        (t.table_id, render_chart_for_table(t, t.column_names, spec=model.config.chart_spec))
        for t in drawn
    ]


def golden_rankings():
    model = FCMModel(_tiny_config())
    service = golden_service(model)
    entries = []
    for name, chart in golden_charts(model):
        for strategy in INDEXING_STRATEGIES:
            for keep in (None, KEEP):
                result = service.processor.query(
                    chart, K, strategy=strategy, prefilter_keep=keep
                )
                entries.append(
                    {
                        "chart_of": name,
                        "strategy": strategy,
                        "prefilter_keep": keep,
                        "candidates": result.candidates,
                        "prefiltered": result.prefiltered,
                        "ranking": [[t, float(s).hex()] for t, s in result.ranking],
                    }
                )
    return entries


def golden_events():
    """The scripted ingest; returns one record per append: what it fired, in
    delivery order."""
    model = FCMModel(_tiny_config())
    tables = golden_tables()
    service = _service(model, tables[:30], notify_overscan=2)
    spec = model.config.chart_spec
    delivered = []
    charts = [
        render_chart_for_table(t, t.column_names, spec=spec)
        for t in (tables[3], tables[120], tables[230], _stream_source(1))
    ]
    a, b = _stream_source(0, 230), _stream_source(1, 420)
    service.subscribe(charts[0], k=1, threshold=0.0, callback=delivered.append)
    service.subscribe(charts[1], k=2, threshold=0.0, callback=delivered.append)
    batches = []

    def append(stream_id, source, start, stop):
        before = len(delivered)
        result = service.append_rows(stream_id, _rows(source, start, stop))
        batches.append(
            {
                "append": [stream_id, start, stop],
                "dirty_segments": result.dirty_segments,
                "events_fired": result.events_fired,
                "events": [
                    {**e.to_dict(), "score": float(e.score).hex()}
                    for e in delivered[before:]
                ],
            }
        )

    append("stream_a", a, 0, 100)  # creates: two dirty windows
    append("stream_a", a, 100, 110)  # the tail alone
    append("stream_a", a, 110, 128)  # seals the tail exactly
    # Five dirty windows: over k * notify_overscan for both (coarse pass).
    append("stream_b", b, 0, 290)
    service.subscribe(charts[2], k=3, threshold=0.85, callback=delivered.append)
    service.subscribe(charts[3], k=1, threshold=0.0, callback=delivered.append)
    append("stream_a", a, 128, 200)  # a new window and its successor's tail
    append("stream_b", b, 290, 300)
    for parameter in model.parameters():  # a training step, as far as serving sees
        parameter.data *= 1.03
    append("stream_a", a, 200, 230)
    append("stream_b", b, 300, 420)
    return batches


def _source(path: Path):
    return json.loads(path.read_text())["recorded"]


needs_float64 = pytest.mark.skipif(
    active_dtype() != np.float64, reason="the goldens hold float64 bits"
)


@needs_float64
def test_rankings_are_the_recorded_ones():
    recorded = _source(RANKINGS)
    entries = golden_rankings()
    assert len(entries) == len(recorded)
    for entry, golden in zip(entries, recorded):
        assert entry == golden, (golden["chart_of"], golden["strategy"])


@needs_float64
def test_subscription_events_are_the_recorded_ones():
    recorded = _source(EVENTS)
    batches = golden_events()
    assert len(batches) == len(recorded)
    for batch, golden in zip(batches, recorded):
        assert batch == golden, golden["append"]


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
POOL_WINDOW = 32
STREAMS = ("stream-a", "stream-b")


def _pool_table(table_id: str, seed: int) -> Table:
    """Two lengths, one or two value columns: four shapes."""
    rng = np.random.default_rng(seed)
    n = (64, 128)[seed % 2]
    columns = [Column("x", np.arange(n, dtype=float), role="x")]
    for c in range(1 + (seed // 2) % 2):
        values = 4.0 * rng.standard_normal() + np.cumsum(rng.standard_normal(n))
        columns.append(Column(f"y{c}", values, role="y"))
    return Table(table_id, columns)


@pytest.fixture(scope="module")
def model():
    return FCMModel(_tiny_config())


@pytest.fixture(scope="module")
def pool():
    return [_pool_table(f"tbl{i:02d}", i) for i in range(16)]


def _pool_service(model, tables, bits: int = 6) -> SearchService:
    service = SearchService(
        model,
        ServingConfig(
            lsh_config=LSHConfig(num_bits=bits, hamming_radius=1),
            streaming=StreamingConfig(segment_rows=POOL_WINDOW),
            result_cache_size=0,
        ),
    )
    service.build(tables)
    return service


def _append(service, stream_id: str, start: int, count: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    service.append_rows(
        stream_id,
        {
            "x": np.arange(start, start + count, dtype=float),
            "y": np.cumsum(rng.standard_normal(count)),
        },
        roles=None if start else {"x": "x"},
    )


def _chart_of(model, table: Table):
    names = [c.name for c in table.columns if c.role != "x"]
    return render_chart_for_table(table, names, spec=model.config.chart_spec)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    tables=st.integers(3, 16),
    bits=st.sampled_from([1, 2, 4, 8]),
    stream_rows=st.lists(st.integers(1, 3 * POOL_WINDOW), min_size=0, max_size=4),
)
def test_hybrid_candidates_are_interval_and_lsh(model, pool, seed, tables, bits, stream_rows):
    service = _pool_service(model, pool[:tables], bits)
    rows = {stream_id: 0 for stream_id in STREAMS}
    for number, count in enumerate(stream_rows):
        stream_id = STREAMS[(seed + number) % 2]
        _append(service, stream_id, rows[stream_id], count, seed + number)
        rows[stream_id] += count
    processor = service.processor
    answered = 0
    for table in pool[:tables:2] + [pool[-1]]:
        chart = _chart_of(model, table)
        interval = processor.candidates(chart, "interval")
        lsh = processor.candidates(chart, "lsh")
        assert processor.candidates(chart, "hybrid") == interval & lsh
        assert interval <= set(service.table_ids) and lsh <= set(service.table_ids)
        answered += bool(lsh)
    if bits == 1:
        assert answered  # one bit, radius one: every code collides


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1e-300]), max_size=24),
    k=st.integers(-2, 30),
)
def test_array_top_k_is_the_dict_sort(scores, k):
    from repro.index.hybrid import _top_k

    ids = [f"t{i:02d}" for i in range(len(scores))]
    by_id = dict(zip(ids, scores))
    expected = sorted(by_id.items(), key=lambda item: item[1], reverse=True)[:k]
    assert _top_k(ids, np.asarray(scores, dtype=np.float64), k) == expected


def _scan_plan(pack):
    """The plan ``exact_pack_scores`` derives when asked for every position."""
    positions = np.arange(len(pack.index))
    buckets = pack.bucket_of[positions]
    order = np.lexsort((positions, buckets))
    counts = np.bincount(buckets, minlength=len(pack.buckets))
    return order, counts, pack.row_of[positions][order]


MUTATIONS = ("add", "remove", "readd", "append", "append_window", "drop_stream", "none")


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16)), min_size=3, max_size=10
    )
)
def test_identity_full_scan_is_the_slow_path_after_every_write(model, pool, ops):
    """``_score_ids`` with the generation's own sorted list (what the
    processor hands over) against a fresh list of the same ids (found by
    the position check) and against a scorer built afterwards — and the list
    object a write made stale is never honoured by the next generation,
    while the generation it belongs to, held past the write, scans to the
    same bits as before it.  The list is replaced after every write *that
    moved an id*: an append to a registered stream moves none, whether or
    not it opens a window, so the next generation keeps the list."""
    service = _pool_service(model, pool[:6])
    scorer = service.scorer
    chart_input = scorer.prepare_query(_chart_of(model, pool[2]))
    chart_repr = scorer.encode_query(chart_input)
    spare = list(pool[6:])
    rows = {stream_id: 0 for stream_id in STREAMS}

    def scan(ids, using=scorer, generation=None):
        # batch_size=1: two ids are already a multi-chunk (index-wide) scan.
        return using._score_ids(
            chart_input, ids, batch_size=1, chart_repr=chart_repr, generation=generation
        )

    for op, seed in ops:
        held = scorer.generation
        before = held.scorable[1]
        scan(before), scan(before)
        bits = scan(before)
        static = sorted(set(service.table_ids) - set(STREAMS))
        stream_id = STREAMS[seed % 2]
        room = POOL_WINDOW - rows[stream_id] % POOL_WINDOW
        if op == "add" and spare:
            service.add_tables([spare.pop(seed % len(spare))])
        elif op == "remove" and len(static) > 2:
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            spare.append(next(t for t in pool if t.table_id == victim))
        elif op == "readd" and static:
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            service.add_tables([_pool_table(victim, 1000 + seed)])
        elif op in ("append", "append_window"):
            count = 1 + seed % max(room - 1, 1) if op == "append" else room + 1 + seed % POOL_WINDOW
            _append(service, stream_id, rows[stream_id], count, seed)
            rows[stream_id] += count
        elif op == "drop_stream" and rows[stream_id]:
            service.remove_tables([stream_id])
            rows[stream_id] = 0
        np.testing.assert_array_equal(scan(before, generation=held), bits)
        ids = scorer.generation.scorable[1]
        if set(ids) != set(before):  # an id moved: the old list is stale
            assert ids is not before
        elif op.startswith("append"):  # a registered stream grew: no id moved
            assert ids is before
        afterwards = copy_scorer(scorer, reversed(list(scorer.generation.encoded)))
        reference = scan(list(ids), afterwards)
        for attempt in range(3):  # slow path, then recognised, then again
            np.testing.assert_array_equal(scan(ids), reference)
        held = scorer.exact_pack()  # a full scan by identity and by position
        now = scorer.generation
        assert scorer._positions(ids, held, now) is None is scorer._positions(list(ids), held, now)
        np.testing.assert_array_equal(scan(list(ids)), reference)
        if ids is not before and set(before) <= set(ids):
            # The stale list still names live ids: a subset scan of today's
            # rows (its batches differ from the full scan's: last-bit noise).
            live = [ids.index(table_id) for table_id in before]
            np.testing.assert_allclose(
                scan(before), reference[live], rtol=0, atol=dtype_tol(1e-12, 5e-5)
            )
        pack = scorer.exact_pack()
        assert_exact_pack_is_a_rebuild(scorer, pack)
        for ours, derived in zip((pack.order, pack.counts, pack.rows), _scan_plan(pack)):
            assert ours.dtype == derived.dtype
            np.testing.assert_array_equal(ours, derived)


# --------------------------------------------------------------------------- #
# Call shapes and the trace
# --------------------------------------------------------------------------- #
def _counting(monkeypatch, owner, name, raising=True):
    """Replace ``owner.name`` by a wrapper; returns the list of its calls."""
    inner, calls = getattr(owner, name, None) or getattr(builtins, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper, raising=raising)
    return calls


def test_a_recognised_full_scan_touches_no_id(monkeypatch):
    import repro.fcm.scorer as scorer_module

    model = FCMModel(_tiny_config())
    service = golden_service(model)
    chart = golden_charts(model)[1][1]  # LSH answers nothing: the empty fallback
    service.scorer.exact_pack()  # built here, not under the counters
    sets = _counting(monkeypatch, scorer_module, "set", raising=False)
    fromiters = _counting(monkeypatch, np, "fromiter")
    lexsorts = _counting(monkeypatch, np, "lexsort")
    sorts = _counting(monkeypatch, scorer_module, "sorted", raising=False)
    for strategy in ("none", "hybrid"):
        first = service.processor.query(chart, K, strategy=strategy)
        slow = len(sets), len(fromiters), len(lexsorts), len(sorts)
        again = service.processor.query(chart, K, strategy=strategy)
        assert (len(sets), len(fromiters), len(lexsorts), len(sorts)) == slow
        assert again.ranking == first.ranking and again.candidates == 323
        if strategy == "none":
            # The scorer's own list is a full scan from the first query on:
            # no set, no id walked, no ``lexsort``, nothing sorted.
            assert slow == (0, 0, 0, 0)
    # A write replaces the list: the ids are sorted once, and the next query
    # walks none of them.
    sorted_before = len(sorts)
    service.add_tables([Table("newcomer", golden_tables()[0].columns)])
    added = len(sets)
    service.processor.query(chart, K)
    assert len(sets) == added and len(sorts) == sorted_before + 1
    assert scorer_count(service.scorer, "exact_pack_builds") == 1
    walked = len(sets), len(fromiters), len(lexsorts)
    service.processor.query(chart, K)
    assert (len(sets), len(fromiters), len(lexsorts)) == walked


def test_the_coarse_pass_recognises_a_full_scan_too(monkeypatch):
    """No stream: the registry's list names every row of the coarse pack."""
    model = FCMModel(_tiny_config())
    service = _service(model, golden_tables())
    chart = golden_charts(model)[1][1]
    first = service.processor.query(chart, K, strategy="none", prefilter_keep=KEEP)
    pack = service.scorer.generation.packs.coarse
    generation = service.scorer.generation
    assert service.scorer._positions(generation.scorable[1], pack, generation) is None
    walked, inner = [], np.fromiter
    monkeypatch.setattr(np, "fromiter", lambda *a, **k: walked.append(k["count"]) or inner(*a, **k))
    again = service.processor.query(chart, K, strategy="none", prefilter_keep=KEEP)
    # Verification walks its KEEP survivors; the coarse pass walks no id.
    assert walked and set(walked) == {KEEP} and service.scorer.generation.packs.coarse is pack
    assert again.ranking == first.ranking and again.prefiltered == KEEP
    fresh = service.scorer.prefilter_ids(
        service.scorer.prepare_query(chart), sorted(service.table_ids), KEEP
    )
    assert len(fresh) == KEEP and {t for t, _ in again.ranking} <= set(fresh)


def test_notify_encodes_no_chart_and_builds_one_pack(model, pool, monkeypatch):
    import repro.fcm.scorer as scorer_module

    service = _pool_service(FCMModel(_tiny_config()), pool[:6])
    local = service.scorer.model
    for table in pool[:3]:
        service.subscribe(_chart_of(local, table), k=1, threshold=0.0)
    _append(service, "stream-a", 0, 40, 1)
    encodes = _counting(monkeypatch, local.chart_encoder, "array_forward")
    builds = _counting(monkeypatch, scorer_module, "build_exact_pack")
    for batch, count in enumerate((5, 30, 3 * POOL_WINDOW)):  # 1, 2 and 4 dirty
        before = len(builds)
        result = service.append_rows(
            "stream-a",
            {"x": np.arange(count, dtype=float), "y": np.arange(count, dtype=float)},
        )
        assert len(builds) == before + 1 and not encodes
        assert result.events_fired == 3
    # A training step: the next batch re-encodes every chart once, the one
    # after it none, and what the subscriptions hold is the fresh encoding.
    for parameter in local.parameters():
        parameter.data *= 1.05
    held = [sub.chart_repr for sub in service.subscriptions._subscriptions.values()]
    _append(service, "stream-b", 0, 10, 2)
    assert len(encodes) == 3
    for old, sub in zip(held, service.subscriptions._subscriptions.values()):
        assert not np.array_equal(old, sub.chart_repr)
        np.testing.assert_array_equal(
            sub.chart_repr, service.scorer.encode_query(sub.chart_input)
        )
    del encodes[:]
    _append(service, "stream-b", 10, 10, 3)
    assert not encodes


def test_an_append_that_moves_no_id_advances_without_a_sweep(model, pool, monkeypatch):
    from repro.fcm import FCMScorer

    service = _pool_service(model, pool[:6])
    scorer = service.scorer
    _append(service, "stream-a", 0, 40, 1)  # creates: window 0 sealed, a tail
    scorer.exact_pack()
    reads = []
    inner = FCMScorer.indexed_table_ids.fget
    monkeypatch.setattr(
        FCMScorer,
        "indexed_table_ids",
        property(lambda self: reads.append(1) or inner(self)),
    )
    projected, index = scorer_count(scorer, "exact_pack_rows_projected"), scorer.exact_pack().index
    # The tail grows, then a window opens: neither moves a scorable id, so
    # each write advances the pack walking no id, keeping the index and
    # projecting one row, the parent.
    for step, (start, count) in enumerate(((40, 5), (45, POOL_WINDOW)), 1):
        _append(service, "stream-a", start, count, step + 1)
        held = scorer.exact_pack()
        assert not reads and held.index is index
        assert scorer_count(scorer, "exact_pack_rows_projected") == projected + step
        assert_exact_pack_is_a_rebuild(scorer, held)  # reads the ids itself
        del reads[:]


def _find(tree: dict, name: str):
    if tree["name"] == name:
        return tree
    for child in tree.get("children", ()):
        found = _find(child, name)
        if found is not None:
            return found
    return None


def test_a_full_scan_is_traced_full_however_it_was_found(model, pool):
    """The scorer's own list is a full scan by identity, a copy of it by the
    position lookup: both run on the pack's plan, and both say so."""
    from repro.obs import start_trace

    scorer = _pool_service(model, pool[:6]).scorer
    chart_input = scorer.prepare_query(_chart_of(model, pool[2]))
    chart_repr = scorer.encode_query(chart_input)
    listed = scorer.generation.scorable[1]
    for ids in (listed, list(listed)):
        with start_trace("scan") as root:
            scorer._score_ids(chart_input, ids, batch_size=1, chart_repr=chart_repr)
        assert _find(root.to_dict(), "verify_exact")["attributes"]["scan"] == "full"


def test_the_trace_says_what_was_cut():
    from repro.obs import start_trace

    model = FCMModel(_tiny_config())
    service = golden_service(model)
    charts = dict(golden_charts(model))
    scans = []
    for _ in range(2):
        with start_trace("query") as root:
            result = service.processor.query(charts["synth_000015"], K)
        tree = root.to_dict()
        candidates = _find(tree, "candidates")
        assert candidates["attributes"]["interval_skipped"] is True
        assert candidates["attributes"]["empty_fallback"] is True
        assert [c["name"] for c in candidates["children"]] == ["lsh_lookup"]
        scans.append(_find(tree, "verify_exact")["attributes"])
    assert result.candidates == 323
    # The scorer's own list is a full scan from the first query on.
    assert scans[0] == scans[1] == {"tables": 323, "projections": "cached", "scan": "full"}
    with start_trace("query") as root:
        service.processor.query(charts["synth_000000"], K)  # LSH answers
    candidates = _find(root.to_dict(), "candidates")
    assert "interval_skipped" not in candidates["attributes"]
    assert [c["name"] for c in candidates["children"]] == ["lsh_lookup", "interval_tree"]
    service.subscribe(charts["synth_000000"], k=1)
    service.subscribe(charts["synth_000015"], k=1)
    with start_trace("ingest") as root:
        service.append_rows("stream_0", _rows(_stream_source(0), 0, 3))
    notify = _find(root.to_dict(), "notify")
    assert notify["attributes"]["subscriptions"] == 2
    assert notify["attributes"]["pack_rows"] == 1 and notify["attributes"]["encodes"] == 0
    assert notify["attributes"]["pack_ms"] >= 0.0
    exact = [c for s in notify["children"] for c in s["children"] if c["name"] == "verify_exact"]
    assert [e["attributes"]["projections"] for e in exact] == ["shared", "shared"]


if __name__ == "__main__":
    import subprocess

    import repro.fcm.scorer as scorer_module

    rankings, events = golden_rankings(), golden_events()
    # The goldens must exercise what they claim to.
    tied = sum(
        len({score for _, score in e["ranking"]}) < len(e["ranking"]) for e in rankings
    )
    by_strategy = {
        s: sorted({e["candidates"] for e in rankings if e["strategy"] == s})
        for s in INDEXING_STRATEGIES
    }
    hybrid = [e for e in rankings if e["strategy"] == "hybrid" and not e["prefilter_keep"]]
    total = by_strategy["none"][0]
    print(f"rankings: {len(rankings)} entries, {tied} with tied scores")
    print(f"candidates by strategy: {by_strategy}")
    assert tied >= 4 and total >= 300
    assert any(e["candidates"] == total for e in hybrid)  # the empty fallback
    assert any(e["candidates"] < total for e in hybrid)  # LSH answered
    assert any(e["prefiltered"] == KEEP for e in rankings)
    dirty = sorted({len(b["dirty_segments"]) for b in events})
    fired = [b["events_fired"] for b in events]
    print(f"events: dirty segments per batch {dirty}, fired per batch {fired}")
    assert {1, 2} <= set(dirty) and max(dirty) > 4 and min(fired) >= 1
    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=Path(scorer_module.__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    for path, name, recorded in (
        (RANKINGS, "golden_rankings", rankings),
        (EVENTS, "golden_events", events),
    ):
        # A re-record may move score bits and nothing else: ids, order,
        # counts and the event sequence must be the replaced recording's.
        previous = json.loads(path.read_text())
        moved = assert_equal_but_score_bits(recorded, previous["recorded"], 1e-12)
        print(f"{path.name}: equal to the previous recording but for score bits, max {moved:.1e}")
        path.write_text(
            json.dumps(
                {
                    "recorded_at": f"working tree on {revision}; against the recording it "
                    f"replaces ({previous['recorded_at'].split(' (')[0].split(';')[0]}) "
                    f"every id, count and event is equal, every score within {moved:.1e}, and "
                    "the order too but for ids that recording scored within 1e-12 of each other",
                    "recorded_from": f"{name}() in tests/test_rows_parity.py",
                    "recorded": recorded,
                },
                indent=1,
            )
            + "\n"
        )
        print(f"recorded {path} from {scorer_module.__file__} at {revision}")
