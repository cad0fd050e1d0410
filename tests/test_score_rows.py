"""Score rows: a held chart's full scan, repaired after a write.

``FCMScorer`` keeps, beside each ``ChartInput`` in its query LRU, the scores
of that chart's last full scan of the index-wide exact pack.  After a write
the chart's next full scan re-runs only the kernel calls the write reached
and copies the rest.  The contract pinned here, under both precision
policies in one run (the model's dtype is set per example, whatever
``REPRO_DTYPE`` says):

* after *any* interleaving of ``add_tables`` / ``remove_tables`` / re-adding
  an id with other content / ``append_rows`` that keep the stream's shape,
  grow it, or open a window / a training step on the head, the chart encoder
  or ``key_proj`` alone / LRU eviction / ``clear_query_cache``, the held
  chart's scan of the current generation **equals bitwise the scan of a
  scorer built from scratch over that generation's entries**;
* a counter on ``_hcman_core`` shows that exactly the calls holding a new or
  re-projected row, or a member whose batch (size, offset, padded shape)
  changed, ran — all of them when the row was dropped, none of them twice;
* a subset scan, a prefiltered query and a subscription notify neither read
  nor write a row.

The examples are derandomised, so a failure reproduces.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMConfig, FCMModel, FCMScorer
from repro.fcm import fastpath
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig, StreamingConfig

from conftest import copy_scorer, scorer_count

WINDOW = 64  # two data segments: a tail append may keep the shape or grow it
POOL_SIZE = 14
INITIAL = 7
STREAMS = ("stream-a", "stream-b")


def _table(table_id: str, seed: int) -> Table:
    """Two lengths, one or two value columns: four shapes."""
    rng = np.random.default_rng(seed)
    n = (64, 128)[seed % 2]
    columns = [Column("x", np.arange(n, dtype=float), role="x")]
    for c in range(1 + (seed // 2) % 2):
        values = 4.0 * rng.standard_normal() + np.cumsum(rng.standard_normal(n))
        columns.append(Column(f"y{c}", values, role="y"))
    return Table(table_id, columns)


POOL = [_table(f"tbl{i:02d}", i) for i in range(POOL_SIZE)]
CHARTS = [
    render_chart_for_table(t, [c.name for c in t.columns if c.role != "x"], spec=ChartSpec())
    for t in POOL
] + [
    # Enough distinct charts that the last ``QUERY_CACHE_SIZE`` of them push
    # ``CHARTS[2]`` and ``CHARTS[5]`` out of the LRU.
    render_chart_for_table(_table(f"extra{i}", 100 + i), ["y0"], spec=ChartSpec())
    for i in range(FCMScorer.QUERY_CACHE_SIZE + 6 - POOL_SIZE)
]


def _service(dtype: str) -> SearchService:
    model = FCMModel(
        FCMConfig(
            embed_dim=16,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            beta=2,
            max_data_segments=4,
            dtype=dtype,
        )
    )
    service = SearchService(
        model,
        ServingConfig(
            lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
            streaming=StreamingConfig(segment_rows=WINDOW),
            result_cache_size=0,
        ),
    )
    service.build(POOL[:INITIAL])
    return service


@pytest.fixture(autouse=True)
def small_calls(monkeypatch):
    """The pool's buckets are all *sparse* at the shipped constants — one
    padded call scores everything, so every write would re-run "every call".
    Shrunk, a scan of the pool is several calls of every kind: sparse shapes
    padded together, a bucket alone, a dense bucket cut into runs of rows.
    Packs are built after this, so the plans they carry are on these too."""
    monkeypatch.setattr(fastpath, "CALL_OVERHEAD_CELLS", 6)
    monkeypatch.setattr(fastpath, "CALL_MAX_CELLS", 16)


@contextmanager
def kernel_calls():
    """Count ``FusedMatchKernel._hcman_core`` calls made inside the block."""
    inner, calls = fastpath.FusedMatchKernel._hcman_core, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return inner(self, *args, **kwargs)

    fastpath.FusedMatchKernel._hcman_core = counted
    try:
        yield calls
    finally:
        fastpath.FusedMatchKernel._hcman_core = inner


def _places(pack):
    """Per kernel call of a full scan of ``pack``: ``{id: (size, offset, NC,
    N2)}`` — derived from the plan itself, not from ``pack.signature``."""
    ids = list(pack.index)
    calls = []
    for begin, end, group in fastpath._kernel_calls(pack, pack.counts):
        nc = max(pack.buckets[number].shape[0] for number in group)
        n2 = max(pack.buckets[number].shape[1] for number in group)
        members = pack.order[begin:end].tolist()
        calls.append({ids[p]: (end - begin, o, nc, n2) for o, p in enumerate(members)})
    return calls


OPS = (
    "add",
    "remove",
    "readd",
    "append",
    "append_segment",
    "append_window",
    "step_head",
    "step_chart_encoder",
    "step_key_proj",
    "evict",
    "clear",
    "other_chart",
    "none",
)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=2**16)),
        min_size=3,
        max_size=10,
    )
)
def test_a_repaired_row_is_a_fresh_scan_and_reruns_what_changed(dtype, ops):
    service = _service(dtype)
    scorer, model = service.scorer, service.model
    chart = CHARTS[2]
    spare = list(POOL[INITIAL:])
    rows = {stream_id: 0 for stream_id in STREAMS}

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

    def scan(using=scorer, ids=None):
        # batch_size=1: two ids are already a multi-chunk (index-wide) scan.
        chart_input = using.prepare_query(chart)
        ids = scorer.generation.scorable[1] if ids is None else ids
        return using._score_ids(
            chart_input, ids, batch_size=1, chart_repr=using.encode_query(chart_input)
        )

    scan()
    assert scorer_count(scorer, "score_rows_repaired") == 0  # nothing held before the first scan
    before = _places(scorer.exact_pack())
    touched, dropped = set(), False
    for op, seed in ops:
        static = sorted(set(service.table_ids) - set(STREAMS))
        stream_id = STREAMS[seed % 2]
        room = WINDOW - rows[stream_id] % WINDOW
        if op == "add" and spare:
            table = spare.pop(seed % len(spare))
            service.add_tables([table])
            touched.add(table.table_id)
        elif op == "remove" and len(static) > 2:
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            spare.append(next(t for t in POOL if t.table_id == victim))
        elif op == "readd" and static:
            victim = static[seed % len(static)]
            service.remove_tables([victim])
            service.add_tables([_table(victim, 1000 + seed)])
            touched.add(victim)
        elif op in ("append", "append_segment", "append_window"):
            if op == "append":  # a few rows: usually within the tail's data segment
                count = 1 + seed % 4
            elif op == "append_segment":  # the tail gains a data segment, no window
                count = min(32, room)
            else:  # opens at least one window: the parent changes bucket
                count = room + 1 + seed % WINDOW
            append(stream_id, count, seed)
            touched.add(stream_id)
        elif op.startswith("step_"):
            part = {
                "step_head": model.matcher.head,
                "step_chart_encoder": model.chart_encoder,
                "step_key_proj": model.matcher.segment_level.key_proj,
            }[op]
            for parameter in part.parameters():  # in place, as an optimiser does
                parameter.data *= 1.0 + 0.01 * (1 + seed % 3)
            dropped = True
        elif op == "evict":
            for other in CHARTS[-scorer.QUERY_CACHE_SIZE :]:
                scorer.prepare_query(other)
            dropped = True
        elif op == "clear":
            scorer.clear_query_cache()
            dropped = True
        elif op == "other_chart":
            # Another held chart scans in between: rows do not interfere.
            other = scorer.prepare_query(CHARTS[5])
            scorer._score_ids(other, scorer.generation.scorable[1], batch_size=1)
        if seed % 3 == 0 and op != "none":
            continue  # several generations between two scans
        reference = scan(copy_scorer(scorer, reversed(list(scorer.generation.encoded))), sorted(service.table_ids))
        repaired = scorer_count(scorer, "score_rows_repaired")
        reused = scorer_count(scorer, "score_row_calls_reused")
        rerun = scorer_count(scorer, "score_row_calls_rerun")
        with kernel_calls() as ran:
            ours = scan()
        np.testing.assert_array_equal(ours, reference)
        assert ours.dtype == np.float64
        after = _places(scorer.exact_pack())
        was = {table_id: place for call in before for table_id, place in call.items()}
        expected = sum(
            any(t in touched or was.get(t) != place for t, place in call.items())
            for call in after
        )
        wrote = bool(touched) or after != before
        if dropped or not wrote:  # no row, or no write since it: a plain scan
            assert len(ran) == len(after)
            assert scorer_count(scorer, "score_rows_repaired") == repaired
        else:
            event(f"repair: some calls kept = {0 < expected < len(after)}")
            assert len(ran) == expected
            assert scorer_count(scorer, "score_rows_repaired") == repaired + 1
            assert scorer_count(scorer, "score_row_calls_rerun") == rerun + expected
            assert scorer_count(scorer, "score_row_calls_reused") == reused + len(after) - expected
        with kernel_calls() as ran:  # the same generation again: every call, same bits
            np.testing.assert_array_equal(scan(), reference)
        assert len(ran) == len(after)
        before, touched, dropped = after, set(), False


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_other_scans_neither_read_nor_write_a_row(dtype):
    service = _service(dtype)
    scorer, processor = service.scorer, service.processor
    chart = CHARTS[2]
    chart_input = scorer.prepare_query(chart)
    ids = scorer.generation.scorable[1]
    full = scorer._score_ids(chart_input, ids, batch_size=1)
    (entry,) = scorer._query_cache.values()
    row = entry[1]
    np.testing.assert_array_equal(row.scores, full)
    assert row.scores is not full  # the caller's array is the caller's

    def counters():
        return (
            scorer_count(scorer, "score_rows_repaired"),
            scorer_count(scorer, "score_row_calls_reused"),
            scorer_count(scorer, "score_row_calls_rerun"),
        )

    assert counters() == (0, 0, 0)
    service.subscribe(chart, k=1, threshold=0.0)
    service.append_rows(  # a write, and a notify of the same chart's subscription
        "stream-a", {"x": np.arange(40.0), "y": np.arange(40.0)}, roles={"x": "x"}
    )
    ids = scorer.generation.scorable[1]
    scorer._score_ids(chart_input, ids[:-1], batch_size=1)  # a subset of the pack
    scorer._score_ids(chart_input, ids[:3])  # a transient pack
    scorer._score_ids(chart_input, ids, batch_size=1, fused=False)  # the graphed body
    result = processor.query(chart, 3, strategy="none", prefilter_keep=4)
    assert result.prefiltered == 4
    assert entry[1] is row and counters() == (0, 0, 0)
    # The next full scan is the repair: only the new stream's call runs.
    with kernel_calls() as ran:
        repaired = scorer._score_ids(chart_input, ids, batch_size=1)
    assert counters()[0] == 1 and len(ran) == counters()[2] < len(scorer.exact_pack().calls)
    fresh = copy_scorer(scorer, list(scorer.generation.encoded))
    np.testing.assert_array_equal(
        repaired, fresh._score_ids(fresh.prepare_query(chart), sorted(ids), batch_size=1)
    )
    assert entry[1] is not row and entry[1].generation == scorer.exact_pack().generation


def test_the_trace_and_the_counters_say_what_was_repaired():
    from repro.obs import start_trace

    service = _service("float64")
    scorer = service.scorer
    chart = CHARTS[2]

    chart_input = scorer.prepare_query(chart)

    def verify_exact():
        with start_trace("query") as root:  # batch_size=1: the index-wide pack
            scorer._score_ids(chart_input, scorer.generation.scorable[1], batch_size=1)

        def find(tree):
            if tree["name"] == "verify_exact":
                return tree["attributes"]
            return next(filter(None, map(find, tree.get("children", ()))), None)

        return find(root.to_dict())

    assert verify_exact()["scan"] == "full"  # the scorer's own list, nothing held
    assert verify_exact()["scan"] == "full"  # no write since: a scan, not a repair
    service.add_tables([POOL[INITIAL]])
    attributes = verify_exact()
    calls = len(scorer.exact_pack().calls)
    assert attributes["scan"] == "repair"
    assert attributes["reused"] + attributes["rerun"] == calls and attributes["rerun"] >= 1
    assert (
        scorer_count(scorer, "score_rows_repaired"),
        scorer_count(scorer, "score_row_calls_reused"),
        scorer_count(scorer, "score_row_calls_rerun"),
    ) == (1, attributes["reused"], attributes["rerun"])


def test_a_write_that_moves_no_id_walks_none_and_keeps_the_index(monkeypatch):
    """Reconcile by reference: after a write that moves no id the pack's
    ``index`` is the held pack's own object, so a score row maps onto the
    new pack as it is."""
    from conftest import assert_exact_pack_is_a_rebuild

    service = _service("float64")
    scorer = service.scorer
    grow = {"x": np.arange(8.0), "y": np.arange(8.0)}
    service.append_rows("stream-a", grow, roles={"x": "x"})
    before = scorer.exact_pack()
    walks = []
    with monkeypatch.context() as patch:
        inner = np.fromiter
        patch.setattr(np, "fromiter", lambda *a, **k: walks.append(1) or inner(*a, **k))
        service.append_rows("stream-a", grow)  # 16 rows: still one data segment
        after = scorer.exact_pack()
        service.append_rows("stream-a", {"x": np.arange(32.0), "y": np.arange(32.0)})
        regrown = scorer.exact_pack()  # a second data segment: the row changes bucket
    assert not walks
    assert after is not before and regrown.generation > after.generation > before.generation
    assert after.index is before.index and regrown.index is before.index
    position = after.index["stream-a"]
    touched = int(after.bucket_of[position])
    for number, (ours, theirs) in enumerate(zip(after.buckets, before.buckets)):
        assert (ours is theirs) == (number != touched)
    assert after.born[position] == after.generation
    assert (np.delete(after.born, position) == np.delete(before.born, position)).all()
    assert_exact_pack_is_a_rebuild(scorer, regrown)


def test_one_weights_check_serves_the_pack_and_the_rows(monkeypatch):
    """``FusedMatchKernel.weights_version`` is the per-query check: while it
    stands still the pack's projections are not compared again, a head-only
    step moves it (rows go, the pack stays), a ``key_proj`` step rebuilds."""
    service = _service("float64")
    scorer, model = service.scorer, service.model
    kernel = scorer._fused_kernel()
    asked = []
    inner = kernel.projections_current
    monkeypatch.setattr(kernel, "projections_current", lambda w: asked.append(1) or inner(w))
    pack, version = scorer.exact_pack(), kernel.weights_version()
    assert scorer.exact_pack() is pack and kernel.weights_version() == version and not asked
    for parameter in model.matcher.head.parameters():
        parameter.data *= 1.01
    assert scorer.exact_pack() is pack and len(asked) == 1
    assert kernel.weights_version() == version + 1
    model.matcher.segment_level.key_proj.weight.data *= 1.01
    assert scorer.exact_pack() is not pack and scorer_count(scorer, "exact_pack_builds") == 2
