"""Readers without the lock: ``SearchService`` serialises its own writes.

A query takes no lock.  It reads one ``IndexGeneration`` end to end and
caches its result only for that generation; writes, snapshots and
subscription calls run one at a time under the service's writer lock, and
the HTTP tier adds no lock of its own.  Pinned here:

* a result computed on a generation a write has since replaced is never
  served from the cache of the newer one (deterministic, with events);
* over the wire, a write held inside ``FCMScorer.advance`` does not delay a
  query, and a query held inside the kernel does not delay a write;
* under 4 readers, a writer (adds, removes, stream appends with a live
  subscription) and a snapshotter, every answer is the serial answer of a
  generation the writer made, the settled index answers as a serial query
  of it does, no thread raises, no counter loses an increment, and every
  snapshot loads to exactly one generation's tables and stream state.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.charts import render_chart_for_table
from repro.data.synth import SynthConfig, synth_tables
from repro.fcm import FCMModel
from repro.index import LSHConfig
from repro.serving import (
    ChartSearchServer,
    HTTPServingConfig,
    SearchService,
    ServingConfig,
    StreamingConfig,
)
from repro.serving.http import chart_payload_from_series, table_payload_from_table

from conftest import scorer_count

K = 5


@pytest.fixture(scope="module")
def model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


@pytest.fixture(scope="module")
def corpus(small_records):
    return [record.table for record in small_records[:8]]


@pytest.fixture(scope="module")
def spare():
    """Tables the writers add: not in the corpus."""
    return list(synth_tables(SynthConfig(num_tables=4, num_rows=48, max_columns=2, seed=5)))


def _config(**overrides) -> ServingConfig:
    overrides.setdefault("lsh_config", LSHConfig(num_bits=6, hamming_radius=1))
    return ServingConfig(**overrides)


def _service(model, tables, **overrides) -> SearchService:
    service = SearchService(model, _config(**overrides))
    service.build(tables)
    return service


def _chart(model, table):
    return render_chart_for_table(table, table.column_names[:1], spec=model.config.chart_spec)


def _post(server, path, body, timeout):
    """One ``POST`` → ``(status, parsed body)``; raises on a timeout."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body).encode("utf-8"))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _query_payload(table, k=K):
    data = table.to_underlying_data(table.column_names[:1])
    return {"chart": chart_payload_from_series(data.series), "k": k}


# --------------------------------------------------------------------------- #
# (a) a result is cached only for the generation it was computed from
# --------------------------------------------------------------------------- #
def test_a_result_computed_before_a_write_is_not_cached_after_it(model, corpus, spare):
    """Reader A's ``processor.query`` has computed and is held; a writer adds
    a table and reader B queries another chart, so the cache moves to the
    new generation; then A is released.  A's chart, asked again, answers
    from the index as it now stands."""
    service = _service(model, corpus)
    chart_a, chart_b = _chart(model, corpus[0]), _chart(model, corpus[1])
    computed, release = threading.Event(), threading.Event()
    inner, answers = service.processor.query, {}

    def held(*args, **kwargs):
        result = inner(*args, **kwargs)
        if threading.current_thread().name == "reader-a":
            computed.set()
            assert release.wait(timeout=30.0), "reader A never released"
        return result

    service.processor.query = held
    reader = threading.Thread(
        target=lambda: answers.setdefault("a", service.query(chart_a, K)), name="reader-a"
    )
    reader.start()
    try:
        assert computed.wait(timeout=30.0), "reader A never computed"
        service.add_tables([spare[0]])
        assert service.query(chart_b, K).total_tables == len(corpus) + 1
    finally:
        release.set()
        reader.join(timeout=30.0)
    assert answers["a"].total_tables == len(corpus)  # A read the index it started on
    again = service.query(chart_a, K)
    assert again.total_tables == service.num_tables == len(corpus) + 1
    fresh = _service(model, corpus + [spare[0]])
    assert again.ranking == fresh.query(chart_a, K).ranking


# --------------------------------------------------------------------------- #
# (b) over the wire, reads and writes do not wait on each other
# --------------------------------------------------------------------------- #
def test_a_query_does_not_wait_on_a_write_held_in_advance(model, corpus, spare):
    service = _service(model, corpus)
    entered, gate = threading.Event(), threading.Event()
    inner, replies = service.scorer.advance, {}

    def held_advance(*args, **kwargs):
        entered.set()
        assert gate.wait(timeout=30.0), "the write was never released"
        return inner(*args, **kwargs)

    service.scorer.advance = held_advance
    with ChartSearchServer(service, HTTPServingConfig(port=0)) as server:
        body = {"tables": [table_payload_from_table(spare[0])]}
        writer = threading.Thread(
            target=lambda: replies.setdefault("add", _post(server, "/tables", body, 30.0))
        )
        writer.start()
        try:
            assert entered.wait(timeout=30.0), "the write never reached advance"
            start = time.perf_counter()
            status, answer = _post(server, "/query", _query_payload(corpus[2]), timeout=2.0)
            assert status == 200 and time.perf_counter() - start < 2.0
            assert answer["total_tables"] == len(corpus)  # the index before the write
            assert writer.is_alive()  # the write is still held
        finally:
            gate.set()
            writer.join(timeout=30.0)
    status, added = replies["add"]
    assert status == 200 and added["num_tables"] == len(corpus) + 1


def test_a_write_does_not_wait_on_a_query_held_in_the_kernel(model, corpus, spare):
    service = _service(model, corpus)
    kernel = service.scorer._fused_kernel()
    assert kernel is not None
    entered, gate = threading.Event(), threading.Event()
    inner, replies = kernel._hcman_core, {}

    def held_core(*args, **kwargs):
        if not entered.is_set():  # the query's first kernel call; writes make none
            entered.set()
            assert gate.wait(timeout=30.0), "the query was never released"
        return inner(*args, **kwargs)

    kernel._hcman_core = held_core
    with ChartSearchServer(service, HTTPServingConfig(port=0)) as server:
        reader = threading.Thread(
            target=lambda: replies.setdefault(
                "query", _post(server, "/query", _query_payload(corpus[3]), 30.0)
            )
        )
        reader.start()
        try:
            assert entered.wait(timeout=30.0), "the query never reached the kernel"
            body = {"tables": [table_payload_from_table(spare[1])]}
            status, added = _post(server, "/tables", body, timeout=10.0)
            assert status == 200 and added["num_tables"] == len(corpus) + 1
            assert reader.is_alive()  # the query is still held
            # A removal reports the index its own write made as well.
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
            try:
                conn.request("DELETE", f"/tables/{spare[1].table_id}")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["num_tables"] == len(corpus)
            finally:
                conn.close()
        finally:
            gate.set()
            reader.join(timeout=30.0)
    status, answer = replies["query"]
    assert status == 200 and answer["total_tables"] == len(corpus)


def test_readers_reaching_an_empty_pack_slot_together_build_it_once(model, corpus):
    """However many readers find a generation's exact pack missing at once,
    it is built once and all of them score from that one copy."""
    service = _service(model, corpus)
    scorer = service.scorer
    start, packs, errors = threading.Barrier(READERS), [], []

    def read():
        try:
            start.wait(timeout=30.0)
            packs.append(scorer.exact_pack())
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [threading.Thread(target=read) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert errors == [] and not any(thread.is_alive() for thread in threads)
    assert len(packs) == READERS and all(pack is packs[0] for pack in packs)
    assert scorer_count(scorer, "exact_pack_builds") == 1
    assert scorer_count(scorer, "exact_pack_rows_projected") == len(corpus)


# --------------------------------------------------------------------------- #
# (c) stress: 4 readers, a writer and a snapshotter
# --------------------------------------------------------------------------- #
READERS = 4
STRATEGIES = ("none", "hybrid")


def _signature(generation):
    """What a snapshot of ``generation`` must load back to: every entry's
    encoding, and every stream's segments and row count."""
    entries = tuple(sorted((t, e.fingerprint()) for t, e in generation.encoded.items()))
    streams = tuple(
        sorted(
            (parent, family.segments, int(family.state["total_rows"]))
            for parent, family in generation.streams.items()
        )
    )
    return entries, streams


@pytest.mark.parametrize("prefilter", [False, True], ids=["exact", "prefilter"])
def test_readers_writer_and_snapshotter_agree_with_serial_answers(
    model, corpus, spare, tmp_path, prefilter
):
    config = dict(
        quantized_prefilter=prefilter,
        prefilter_overscan=1,  # k * 1 < candidates: the pre-filter engages
        streaming=StreamingConfig(segment_rows=32),
    )
    service = _service(model, corpus, **config)
    charts = [_chart(model, table) for table in corpus[:3]]
    keep = K if prefilter else None
    path = tmp_path / "index"
    service.save_index(path)
    subscription = service.subscribe(charts[0], k=1, threshold=-np.inf)
    generations = [service.processor.generation]
    answers, snapshots, errors = [], [], []
    done = threading.Event()
    rng = np.random.default_rng(0)
    rows = rng.standard_normal(400)

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)
                done.set()

        return run

    def reader(number):
        turn = number
        while not done.is_set():
            index, strategy = turn % len(charts), STRATEGIES[(turn // len(charts)) % 2]
            result = service.query(charts[index], K, strategy=strategy)
            answers.append((index, strategy, result.ranking, result.total_tables))
            turn += 1

    appended, events = 0, 0

    def append(count):
        nonlocal appended
        start = appended
        service.append_rows(
            "live",
            {"t": np.arange(start, start + count, dtype=float), "v": rows[start : start + count]},
            roles={"t": "x"} if start == 0 else None,
        )
        appended += count

    def writer():
        nonlocal events
        try:
            for step in range(12):
                table = spare[step % len(spare)]
                service.add_tables([table])
                generations.append(service.processor.generation)
                append(7 + step % 5)
                generations.append(service.processor.generation)
                service.remove_tables([table.table_id])
                generations.append(service.processor.generation)
                events += len(service.poll(subscription))
                time.sleep(0.002)
        finally:
            done.set()

    def snapshotter():
        while not done.is_set():
            service.save_index(path, append=True)
            loaded = SearchService.load_index(model, path, _config(**config))
            snapshots.append(_signature(loaded.processor.generation))
            time.sleep(0.005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded(lambda n=n: reader(n))) for n in range(READERS)]
        threads += [threading.Thread(target=guarded(f)) for f in (writer, snapshotter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    def serial(generation, index, strategy):
        result = service.processor.query(
            charts[index], K, strategy=strategy, prefilter_keep=keep, generation=generation
        )
        return result.ranking, result.total_tables

    possible = {
        (index, strategy): [serial(g, index, strategy) for g in generations]
        for index in range(len(charts))
        for strategy in STRATEGIES
    }
    assert answers
    for index, strategy, ranking, total in answers:
        assert (ranking, total) in possible[index, strategy], (index, strategy, total)

    # Settled: the warm cache answers as a serial query of the last index.
    settled = service.processor.generation
    reads = len(answers)
    for index in range(len(charts)):
        for strategy in STRATEGIES:
            result = service.query(charts[index], K, strategy=strategy)
            reads += 1
            assert (result.ranking, result.total_tables) == serial(settled, index, strategy)

    summary = service.stats.summary()
    assert sum(s["queries"] + s["cache_hits"] for s in summary.values()) == reads
    events += len(service.poll(subscription))
    assert events == service.stats.append_batches == 12  # one event a batch, none lost

    assert snapshots
    made = {_signature(g) for g in generations}
    assert all(signature in made for signature in snapshots)
