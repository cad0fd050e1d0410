"""A build on every core: index chunks encoded on helper threads, collected in order.

``FCMScorer.index_repository`` encodes its chunks on as many threads as the
host has cores to spare (usable cores ÷ BLAS threads: ``repro.nn.compute_threads``)
and collects them on the calling thread in input order.  What that must not
move, under both precision policies, whatever the environment's BLAS pin
(the tests set the scorer's ``_encode_threads`` to force a thread count):

* **Bitwise the serial build** — representations, column embeddings, ranges
  and names, and the insertion order of the cache, over ``mixed_tables()``
  (one-segment tables included) plus a uniform corpus, in order, reversed and
  shuffled, at ``batch_size`` 1 / 2 / 16 / 0, and for a streamed parent's
  windows;
* **Every thread works** — with a barrier on each thread's first chunk, the
  calling thread and every helper encode at least one chunk; eight threads
  switching every microsecond still build the serial cache;
* **Errors** — a chunk the encoder rejects raises its ``ValueError`` from the
  call, the write swaps nothing in (the index stays the generation before
  it), and every thread the call started has exited;
* **Sizing** — an unpinned BLAS starts no thread; a pinned one gets usable
  cores ÷ the largest BLAS thread count, capped at the chunk count; a shard worker
  encodes serially; ``IndexBuildStats.encode_threads`` and the
  ``index_built`` log report the count.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading

import numpy as np
import pytest

import repro.fcm.scorer as scorer_module
import repro.nn.threads as threads_module
from repro.data import Column, SynthConfig, Table, synth_table
from repro.fcm import FCMModel, FCMScorer
from repro.index import LSHConfig
from repro.nn import compute_threads
from repro.obs import configure_logging
from repro.serving import SearchService, ServingConfig, StreamingConfig
from repro.serving import sharding

from test_build_parity import mixed_tables
from test_rows_parity import _tiny_config

DTYPES = ("float64", "float32")
BLAS_ENV = threads_module.BLAS_THREAD_ENV


def _model(dtype: str) -> FCMModel:
    return FCMModel(_tiny_config().with_overrides(dtype=dtype))


def _corpus():
    """``mixed_tables()`` (every segment count, lone rows) and a uniform
    stretch of ledger-like tables: 56 tables, four chunks of 16."""
    uniform = SynthConfig(40, num_rows=128, max_columns=3, num_clusters=8, seed=9)
    return mixed_tables() + [synth_table(i, uniform) for i in range(40)]


def _build(model, tables, encode_threads, batch_size=None):
    scorer = FCMScorer(model)
    scorer._encode_threads = encode_threads
    used = scorer.index_repository(tables, batch_size=batch_size)
    return scorer, used


@contextlib.contextmanager
def threads_started():
    """Every ``threading.Thread`` started inside the block, in start order."""
    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", recording_start)
        yield started


def _assert_same_cache(ours: FCMScorer, serial: FCMScorer, context) -> None:
    """The same ids in the same insertion order, every entry bitwise."""
    assert list(ours.generation.encoded) == list(serial.generation.encoded), context
    for table_id, reference in serial.generation.encoded.items():
        entry = ours.generation.encoded[table_id]
        for name in ("representations", "column_embeddings"):
            a, b = getattr(entry, name), getattr(reference, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (context, table_id, name)
            assert a.tobytes() == b.tobytes(), (context, table_id, name)
        assert entry.column_ranges == reference.column_ranges, (context, table_id)
        assert entry.column_names == reference.column_names, (context, table_id)


# --------------------------------------------------------------------------- #
# Bitwise the serial build
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
def test_the_threaded_build_is_the_serial_build(dtype):
    model = _model(dtype)
    tables = _corpus()
    shuffled = list(tables)
    np.random.default_rng(5).shuffle(shuffled)
    for order_name, order in (("in order", tables), ("reversed", tables[::-1]), ("shuffled", shuffled)):
        for batch_size in (1, 2, 16, 0):  # 0: the whole list in one chunk
            serial, used = _build(model, order, 1, batch_size)
            assert used == 1
            chunks = 1 if batch_size == 0 else -(-len(order) // batch_size)
            for threads in (2, 3):
                ours, used = _build(model, order, threads, batch_size)
                assert used == min(threads, chunks)
                _assert_same_cache(ours, serial, (order_name, batch_size, threads))


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_thread_encodes_a_chunk(dtype, monkeypatch):
    """A barrier holds each thread's first chunk until all have one: the
    calling thread and both helpers encode, and the result is still the
    serial build's."""
    threads = 3
    barrier, lock, seen = threading.Barrier(threads, timeout=30), threading.Lock(), set()
    inner = FCMScorer._encode_chunk

    def first_chunk_waits(self, tables):
        with lock:
            first = threading.get_ident() not in seen
            seen.add(threading.get_ident())
        if first:
            barrier.wait()
        return inner(self, tables)

    model, tables = _model(dtype), _corpus()
    serial, _ = _build(model, tables, 1, batch_size=2)
    seen.clear()
    monkeypatch.setattr(FCMScorer, "_encode_chunk", first_chunk_waits)
    ours, used = _build(model, tables, threads, batch_size=2)
    assert used == threads and len(seen) == threads
    assert threading.get_ident() in seen
    _assert_same_cache(ours, serial, "barrier")


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_streamed_parents_windows(dtype, monkeypatch):
    """The dirty windows of one append are one ``index_repository`` call:
    chunked by two, they are encoded on three threads, and every segment
    entry, the cache order and the composed parent are the serial build's."""
    monkeypatch.setattr(FCMScorer, "INDEX_BATCH_SIZE", 2)
    rng = np.random.default_rng(17)
    history = {"x": np.arange(400.0), "y": np.cumsum(rng.standard_normal(400))}
    services = []
    for threads in (1, 3):
        service = SearchService(
            _model(dtype),
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
                streaming=StreamingConfig(segment_rows=24),
                result_cache_size=0,
            ),
        )
        service.scorer._encode_threads = threads
        service.build(mixed_tables()[:4])
        for start, stop in ((0, 250), (250, 260), (260, 400)):  # 11 dirty windows, 1, 7
            service.append_rows(
                "stream", {name: values[start:stop] for name, values in history.items()},
                roles={"x": "x"},
            )
        services.append(service)
    serial, ours = (service.scorer for service in services)
    assert len(serial.generation.segments("stream")) == 17
    _assert_same_cache(ours, serial, "stream")
    a, b = ours.encoded_table("stream"), serial.encoded_table("stream")
    assert a.representations.tobytes() == b.representations.tobytes()
    assert a.column_embeddings.tobytes() == b.column_embeddings.tobytes()
    for service in services:
        service.close()


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("position", [0, 5, 9, 30])
def test_a_failing_chunk_fails_the_whole_write(dtype, position, monkeypatch):
    """A table the encoder rejects (no column to encode) at ``position``: the
    threaded call raises the serial call's ``ValueError``, starts no thread it
    does not join and leaves the index the generation it was — whichever
    chunk failed — and a retry without the table completes the serial
    build.  Threads are checked by the ones the call started, not the
    process's count, so another test's stray thread cannot move the
    verdict."""
    inner = scorer_module.prepare_table_inputs

    def empty_for_empty(tables, config):
        batch = inner(tables, config)
        for position, table in enumerate(tables):
            if table.table_id == "empty":  # prepared with no column
                group, start, _ = batch.slots[position]
                batch.slots[position] = (group, start, start)
                batch.column_names[position] = []
        return batch

    monkeypatch.setattr(scorer_module, "prepare_table_inputs", empty_for_empty)
    model, tables = _model(dtype), _corpus()
    tables.insert(position, Table("empty", [Column("c", np.arange(8.0))]))
    rest = [t for t in tables if t.table_id != "empty"]

    outcomes = {}
    for threads in (1, 2, 3):
        scorer = FCMScorer(model)
        scorer._encode_threads = threads
        scorer.index_repository(rest[-2:])
        before = scorer.generation
        with threads_started() as started, pytest.raises(ValueError) as raised:
            scorer.index_repository(tables, batch_size=3)
        assert len(started) == threads - 1, threads
        assert not any(thread.is_alive() for thread in started), threads
        assert scorer.generation is before, threads
        outcomes[threads] = (scorer, str(raised.value))
    serial, message = outcomes[1]
    assert "'empty' has no columns to encode" in message
    for threads in (2, 3):
        scorer, theirs = outcomes[threads]
        assert theirs == message
        scorer.index_repository(rest, batch_size=3)
        serial_retry = FCMScorer(model)
        serial_retry._encode_threads = 1
        serial_retry.index_repository(rest[-2:])
        serial_retry.index_repository(rest, batch_size=3)
        _assert_same_cache(scorer, serial_retry, ("retry", threads))


# --------------------------------------------------------------------------- #
# Sizing
# --------------------------------------------------------------------------- #
@pytest.fixture
def four_cores(monkeypatch):
    monkeypatch.setattr(threads_module, "usable_cores", lambda: 4)
    for name in BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_compute_threads_divides_the_cores_by_the_blas_threads(four_cores):
    assert compute_threads() == 1  # unpinned: BLAS already runs one per core
    for name in BLAS_ENV:  # the ledger's pin: every variable 1
        four_cores.setenv(name, "1")
    assert compute_threads() == 4
    four_cores.delenv("OPENBLAS_NUM_THREADS")
    four_cores.setenv("MKL_NUM_THREADS", "4")  # MKL reads its own first: the largest decides
    assert compute_threads() == 1
    four_cores.delenv("MKL_NUM_THREADS")
    four_cores.setenv("OMP_NUM_THREADS", "2")
    assert compute_threads() == 2
    four_cores.setenv("OPENBLAS_NUM_THREADS", "1")
    assert compute_threads() == 2
    four_cores.setenv("OPENBLAS_NUM_THREADS", "8")  # more BLAS threads than cores
    assert compute_threads() == 1
    for junk in ("0", "-1", "two", ""):  # not a thread count: ignored
        four_cores.setenv("OPENBLAS_NUM_THREADS", junk)
        assert compute_threads() == 2


def test_many_threads_with_a_short_switch_interval():
    """More threads than cores, one table a chunk, the interpreter switching
    threads every microsecond: a lost chunk, a chunk cached twice or out of
    order would show as a cache unlike the serial one.  Sixteen tables keep
    it small (0.02–0.06 s on a 2-CPU host, one or both cores); the build runs
    on a thread of its own so a deadlock fails the test instead of hanging
    the run."""
    model, tables = _model("float64"), mixed_tables()
    serial, _ = _build(model, tables, 1, batch_size=1)
    outcome = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: outcome.update(build=_build(model, tables, 8, batch_size=1))
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    ours, used = outcome["build"]
    assert used == 8
    _assert_same_cache(ours, serial, "stress")


def test_an_unpinned_build_starts_no_helper_thread(four_cores):
    scorer = FCMScorer(_model("float64"))
    with threads_started() as started:
        assert scorer.index_repository(_corpus(), batch_size=2) == 1
    assert started == []
    assert len(scorer.generation.encoded) == 56


def test_a_pinned_build_uses_every_core_up_to_the_chunk_count(four_cores):
    four_cores.setenv("OPENBLAS_NUM_THREADS", "1")
    model, tables = _model("float64"), _corpus()
    serial, _ = _build(model, tables, 1)
    for batch_size, expected in ((2, 4), (16, 4), (28, 2), (0, 1)):
        ours, used = _build(model, tables, None, batch_size)
        assert used == expected, batch_size
        _assert_same_cache(ours, serial, batch_size)
    assert FCMScorer(model).index_repository([]) == 0


def test_a_shard_worker_encodes_serially():
    model = _model("float64")
    sharding._init_worker(model.config, model.state_dict())
    try:
        assert sharding._WORKER_SCORER._encode_threads == 1
    finally:
        sharding._WORKER_SCORER = None


def test_the_build_reports_its_encode_threads():
    stream = io.StringIO()
    configure_logging(level="info", format="json", stream=stream)
    try:
        service = SearchService(_model("float64"), ServingConfig(result_cache_size=0))
        service.scorer._encode_threads = 2
        stats = service.build(_corpus())
        assert stats.encode_threads == 2
        again = service.build(_corpus())  # a rebuild encodes every table again
        assert again.encode_threads == 2
        service.close()
    finally:
        configure_logging(level="off")
    built = [json.loads(line) for line in stream.getvalue().splitlines()]
    built = [record for record in built if record["event"] == "index_built"]
    assert [record["encode_threads"] for record in built] == [2, 2]
