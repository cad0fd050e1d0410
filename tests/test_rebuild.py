"""The index is one value, and a rebuild holds exactly what it was given.

Which tables and streams are indexed, the packs and the candidate
structures are one ``IndexGeneration``, which every write replaces whole.
Three consequences are pinned here:

* ``SearchService.build(tables)`` on a service that already holds an index —
  tables, a stream, an id whose content has changed since — leaves exactly
  what a fresh service's ``build(tables)`` leaves: the scorable ids, every
  encoding bit for bit, both packs, the interval rows, the LSH buckets and
  every ranking and score;
* the index keeps no raw ``Table``: once the caller lets go of the tables it
  built from or added, they are freed;
* a query reads one generation: a write that lands while it runs changes
  none of its stages.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.charts import render_chart_for_table
from repro.data import Table
from repro.data.synth import SynthConfig, synth_tables
from repro.fcm import FCMModel
from repro.fcm.fastpath import FusedMatchKernel
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig

STRATEGIES = ("none", "interval", "lsh", "hybrid")


def _service(model, **config) -> SearchService:
    config.setdefault("lsh_config", LSHConfig(num_bits=6, hamming_radius=1))
    return SearchService(model, ServingConfig(**config))


def _changed(table: Table, other: Table) -> Table:
    """``table``'s id with other content: ``other``'s columns, whose encoding
    differs (scaling or shifting a column would not: preprocessing
    normalises that away)."""
    return Table(table.table_id, other.columns)


def _chart(model, table: Table):
    return render_chart_for_table(table, table.column_names[:1], spec=model.config.chart_spec)


@pytest.fixture(scope="module")
def model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


@pytest.fixture(scope="module")
def corpus(small_records):
    return [record.table for record in small_records[:10]]


def _assert_same_index(ours: SearchService, theirs: SearchService) -> None:
    scorer, reference = ours.scorer, theirs.scorer
    assert list(scorer.generation.encoded) == list(reference.generation.encoded)
    assert scorer.generation.scorable[1] == reference.generation.scorable[1]
    assert scorer.streams == reference.streams == {}
    for table_id, encoded in reference.generation.encoded.items():
        held = scorer.generation.encoded[table_id]
        for name in ("representations", "column_embeddings"):
            a, b = getattr(held, name), getattr(encoded, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (table_id, name)
        assert held.column_names == encoded.column_names
        assert held.column_ranges == encoded.column_ranges
    assert scorer.exact_pack().index == reference.exact_pack().index
    assert scorer.coarse_pack().index == reference.coarse_pack().index
    rows = [sorted(map(tuple, s.processor.generation.intervals.intervals)) for s in (ours, theirs)]
    assert rows[0] == rows[1]
    assert ours.processor.lsh.buckets == theirs.processor.lsh.buckets


@pytest.mark.parametrize("workers", [1, 2])
def test_a_rebuild_equals_a_fresh_build(model, corpus, workers):
    """``build(A)`` — plus a stream — then ``build(B)``, B a subset of A and
    one of B's ids carrying new content: the index is a fresh ``build(B)``'s,
    on the in-process and on the sharded encode alike."""
    service = _service(model, result_cache_size=0)
    service.build(corpus)
    service.append_rows(
        "stream", {"t": np.arange(40.0), "v": np.sin(np.arange(40.0))}, roles={"t": "x"}
    )
    changed = _changed(corpus[3], corpus[9])
    original = service.scorer.encoded_table(changed.table_id).representations
    rebuilt = corpus[:3] + [changed] + corpus[5:8]
    # B's charts, the changed table's own among them.
    queries = [_chart(model, table) for table in corpus[:3] + [changed]]
    for chart in queries:  # held charts leave score rows behind
        service.query(chart, k=5, strategy="none")

    service.build(rebuilt, num_workers=workers)
    fresh = _service(model, result_cache_size=0)
    fresh.build(rebuilt)

    _assert_same_index(service, fresh)
    encoding = service.scorer.encoded_table(changed.table_id).representations
    assert encoding.shape != original.shape or encoding.tobytes() != original.tobytes()
    for chart in queries:
        for strategy in STRATEGIES:
            ours = service.query(chart, k=len(rebuilt), strategy=strategy)
            theirs = fresh.query(chart, k=len(rebuilt), strategy=strategy)
            assert ours.ranking == theirs.ranking, strategy
            assert ours.candidates == theirs.candidates


def test_a_table_listed_twice_is_indexed_once(model, corpus, tmp_path):
    """A list naming an id twice indexes its first occurrence once, through
    a build and through an add: the interval rows, and a snapshot's round
    trip, are a fresh build's of the list without the repeat."""
    distinct = corpus[:5]
    built, added, fresh = (_service(model) for _ in range(3))
    built.build(distinct + [corpus[1], corpus[3]])
    added.build(distinct[:2])
    added.add_tables(distinct[2:] + [distinct[2], _changed(distinct[4], corpus[9])])
    fresh.build(distinct)
    config = ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1))
    for name, service in (("built", built), ("added", added)):
        _assert_same_index(service, fresh)
        service.save_index(tmp_path / name)
        restored = SearchService.load_index(model, tmp_path / name, config)
        assert list(restored.scorer.generation.encoded) == list(fresh.scorer.generation.encoded)
        rows = [sorted(map(tuple, s.processor.generation.intervals.intervals)) for s in (restored, fresh)]
        assert rows[0] == rows[1]
        assert restored.processor.lsh.buckets == fresh.processor.lsh.buckets


def test_a_write_counts_the_ids_it_added_and_removed(model, corpus):
    """The service counts what the index's one write changed, not what a
    call named: an id already indexed or listed twice is added once, an
    unknown or repeated id is removed once."""
    t0, t1, t2 = corpus[:3]
    service = _service(model)
    service.build([t0, t1])
    stats = service.add_tables([t0, t2, t2])
    assert service.stats.tables_added == 1
    assert stats.added == [t2.table_id] and stats.num_tables == service.num_tables == 3
    assert service.remove_tables([t1.table_id, "nope", t1.table_id]) == 1
    assert service.stats.tables_removed == 1 and service.num_tables == 2


def test_the_index_pins_no_raw_table(model):
    """Every table a build or an add was handed is freed once the caller
    drops it: the index holds encodings and row arrays, never a ``Table``."""
    config = SynthConfig(num_tables=30, num_rows=24, max_columns=2, seed=11)
    tables = list(synth_tables(config))
    service = _service(model)
    service.build(tables[:20])
    service.add_tables(tables[20:])
    service.remove_tables([tables[0].table_id])
    service.add_tables([tables[0]])
    refs = [weakref.ref(table) for table in tables]
    del tables
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert service.num_tables == 30


def test_a_query_reads_one_generation(model, corpus, monkeypatch):
    """A remove and an add land from inside the pre-filter's kernel call —
    after the candidate stage, before verification.  The query still ranks
    the index it started on, its best table's old content included; the
    next query ranks what a fresh build of the written tables ranks."""
    tables, k = corpus[:8], 8
    service = _service(model, result_cache_size=0)
    service.build(tables)
    chart = _chart(model, tables[3])
    expected = service.processor.query(chart, k, strategy="none", prefilter_keep=4).ranking
    best = next(t for t in tables if t.table_id == expected[0][0])
    replaced = _changed(best, corpus[9])  # the best id, other content
    written = [t for t in tables if t is not best] + [replaced, corpus[8]]
    inner, writes = FusedMatchKernel._hcman_core, []

    def kernel_call(kernel, *args):
        if not writes:  # the first call: the coarse pass
            writes.append(service.remove_tables([best.table_id]))
            service.add_tables([replaced, corpus[8]])
        return inner(kernel, *args)

    with monkeypatch.context() as patch:
        patch.setattr(FusedMatchKernel, "_hcman_core", kernel_call)
        during = service.processor.query(chart, k, strategy="none", prefilter_keep=4)
    assert writes == [1] and during.ranking == expected
    assert during.total_tables == len(tables)
    fresh = _service(model, result_cache_size=0)
    fresh.build(written)
    after, theirs = (
        s.processor.query(chart, k, strategy="none", prefilter_keep=4) for s in (service, fresh)
    )
    assert after.ranking == theirs.ranking and after.total_tables == len(written)
