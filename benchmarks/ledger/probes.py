"""Per-layer measurements: every layer timed from outside, through public calls.

Two sources feed the per-layer metrics of a traced run:

* :class:`StageReplay` re-enacts ``SearchService.query`` stage by stage on the
  workload's own service and charts, each stage in a harness-side span.  Its
  numbers differ per workload and say which layer owns that workload's
  latency.
* :func:`fixture_probes` times the layers no query passes through (build,
  persistence, streaming ingest, HTTP, worker processes) on one small fixed
  corpus, the same on every workload, so each of those metrics has one
  definition and is measured on every traced run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

from repro.charts.rasterizer import LineChart, render_chart_for_table
from repro.fcm.scorer import FCMScorer
from repro.index.interval_tree import IntervalTree
from repro.index.lsh import RandomHyperplaneLSH
from repro.serving import (
    ChartSearchServer,
    HTTPServingConfig,
    SearchService,
    ServingConfig,
    snapshot_segments,
)
from repro.serving.http import parse_query_payload, query_result_to_dict

from harness import (
    Answer,
    Op,
    OpError,
    Round,
    latencies_ms,
    percentile_with_support,
    quiet_op_median_ms,
    run_round,
)
from inputs import (
    K,
    LSH_CONFIG,
    MODEL_CONFIG,
    NUM_CLUSTERS,
    load_model,
    make_tables,
    pick_charts,
    query_body,
    stream_rows,
)
from spans import SpanRecorder
from wire import ServerProcess, post_query

#: Stages whose self times must add up to ``SearchService.query``.
REPLAY_STAGES = (
    "service.query",
    "service.fingerprint",
    "scorer.prepare_query",
    "index.candidates",
    "service.order",
    "scorer.prefilter",
    "scorer.verify",
    "service.merge",
)
#: The replayed stages that belong to the service/processor glue itself.
SERVICE_GLUE = ("service.query", "service.fingerprint", "service.order", "service.merge")


def _p50_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def _timed(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


class StageReplay:
    """``SearchService.query`` re-enacted stage by stage under spans.

    The replay follows ``SearchService._query_impl`` and
    ``HybridQueryProcessor.query`` on the miss path: fingerprint, prepare,
    candidates (with the empty-set fallback), the int8 coarse pass when the
    service has it on, exact verification, merge.  It must return the ranking
    ``SearchService.query`` returns; the traced run checks that.
    """

    def __init__(self, service: SearchService, recorder: SpanRecorder, k: int = K) -> None:
        self.service = service
        self.recorder = recorder
        self.k = k
        self._requests = itertools.count(1)
        self._last_input: Dict[int, object] = {}

    def query(self, key: int, chart: LineChart) -> Answer:
        scorer, processor = self.service.scorer, self.service.processor
        config, span = self.service.config, self.recorder.span
        with span("service.query", request=next(self._requests)):
            with span("service.fingerprint"):
                chart.fingerprint()
            with span("scorer.prepare_query") as sp:
                chart_input = scorer.prepare_query(chart)
                # A prep-cache hit hands back the very object it cached.
                sp.counts["cache_hit"] = int(self._last_input.get(key) is chart_input)
                self._last_input[key] = chart_input
            with span("index.candidates") as sp:
                found = processor.candidates(chart, "hybrid")
                sp.counts["found"] = len(found)
            with span("service.order") as sp:
                table_ids = processor.table_ids
                ordered = sorted(found or table_ids)
                candidates = len(ordered)
                sp.counts.update(
                    empty_fallback=int(not found),
                    candidates=candidates,
                    tables=len(table_ids),
                )
            keep = self.k * config.prefilter_overscan
            if config.quantized_prefilter and keep < len(ordered):
                with span("scorer.prefilter") as sp:
                    ordered = scorer.prefilter_ids(chart_input, ordered, keep)
                    sp.counts["kept"] = len(ordered)
            with span("scorer.verify") as sp:
                scores = scorer.score_chart_batch(chart, table_ids=ordered)
                sp.counts["tables"] = len(ordered)
            with span("service.merge"):
                ranking = sorted(scores.items(), key=lambda item: item[1], reverse=True)
                ranking = ranking[: self.k]
        return Answer(ranking, candidates)

    def probe(self, chart: LineChart) -> None:
        """What each index alone returns, and the coarse pass if it is off."""
        scorer, processor = self.service.scorer, self.service.processor
        span = self.recorder.span
        with span("index.probe", request=next(self._requests)):
            for strategy in ("interval", "lsh"):
                with span(f"index.{strategy}") as sp:
                    sp.counts["found"] = len(processor.candidates(chart, strategy))
            if not self.service.config.quantized_prefilter:
                with span("probe.prefilter") as sp:
                    kept = scorer.prefilter_ids(
                        scorer.prepare_query(chart),
                        sorted(processor.table_ids),
                        self.k * self.service.config.prefilter_overscan,
                    )
                    sp.counts["kept"] = len(kept)

    def ops(self, key: int, chart: LineChart) -> List[Op]:
        return [
            Op("query", lambda: self.query(key, chart), key),
            Op("probe", lambda: self.probe(chart)),
        ]

    def _spanned(self, op: Op) -> Op:
        def call():
            with self.recorder.span(f"op.{op.kind}", request=next(self._requests)):
                return op.call()

        return Op(op.kind, call, op.chart)

    def traced(
        self, clients: Sequence[Sequence[Op]], charts: Sequence[LineChart], in_process: bool
    ) -> List[List[Op]]:
        """The traced twin of an op list.

        In-process queries become stage replays followed by an index probe;
        every other op (and every query over the wire) runs unchanged inside
        one span.
        """
        return [
            [
                twin
                for op in ops
                for twin in (
                    self.ops(op.chart, charts[op.chart])
                    if op.kind == "query" and in_process
                    else [self._spanned(op)]
                )
            ]
            for ops in clients
        ]

    def on_twin(self, charts: Sequence[LineChart]) -> "tuple[float, int]":
        """Replay ``charts`` once on this replay's own service, cold.

        For a workload served over the wire, where the stages are out of
        reach: the service is the in-harness twin of the served index.
        Returns the untraced ``SearchService.query`` median in ms and the
        number of replayed answers that differ from the untraced ones.
        """
        self.service.scorer.clear_query_cache()
        untraced = run_round(
            [[Op("query", lambda c=c: self.service.query(c, self.k).ranking, i)
              for i, c in enumerate(charts)]]
        )
        self.service.scorer.clear_query_cache()
        replayed = run_round([[op for i, c in enumerate(charts) for op in self.ops(i, c)]])
        mismatches = sum(
            a.result != b.result.ranking for a, b in zip(untraced.samples, replayed.counted)
        )
        return statistics.median(latencies_ms(untraced.samples, "query")), mismatches


def replay_mismatches(plain: Round, traced: Round) -> int:
    """Queries whose traced answer differs from the untraced one."""
    pairs = zip(
        (s for s in plain.samples if s.kind == "query"),
        (s for s in traced.samples if s.kind == "query"),
    )
    return sum(1 for a, b in pairs if a.result != b.result)


def stage_metrics(
    recorder: SpanRecorder,
    service: SearchService,
    plain: Sequence[Round],
    traced: Sequence[Round],
    query_p50_ms: float,
) -> Dict[str, float]:
    """Stage self times and exact counts of the replayed queries.

    ``query_p50_ms`` is the untraced ``SearchService.query`` median over the
    charts the replay ran on; the stage sum is compared against it.
    """
    p50: Dict[str, float] = defaultdict(float)
    p50.update((name, _p50_ms(values)) for name, values in recorder.self_times().items())
    counts: Dict[str, Dict[str, List[float]]] = {}
    for item in recorder.spans:
        for key, value in item.counts.items():
            counts.setdefault(item.name, {}).setdefault(key, []).append(value)

    def mean(name: str, key: str) -> float:
        values = counts.get(name, {}).get(key, [])
        return statistics.fmean(values) if values else 0.0

    tables = mean("service.order", "tables") or 1.0
    verify = [
        (item.duration, item.counts["tables"])
        for item in recorder.spans
        if item.name == "scorer.verify"
    ]
    stage_sum = sum(p50[name] for name in REPLAY_STAGES)
    plain_samples = [ms for r in plain for ms in latencies_ms(r.samples, "query")]
    return {
        "scorer.prepare_query_ms": p50["scorer.prepare_query"],
        "scorer.prep_cache_hit_frac": mean("scorer.prepare_query", "cache_hit"),
        "index.candidates_ms": p50["index.candidates"],
        "index.interval_ms": p50["index.interval"],
        "index.lsh_ms": p50["index.lsh"],
        "index.candidate_frac": mean("service.order", "candidates") / tables,
        "index.interval_candidate_frac": mean("index.interval", "found") / tables,
        "index.lsh_candidate_frac": mean("index.lsh", "found") / tables,
        "index.empty_fallback_frac": mean("service.order", "empty_fallback"),
        "index.lsh_buckets": float(service.processor.lsh.num_buckets),
        # On a service without the coarse pass the probe's span stands in.
        "scorer.prefilter_ms": p50["scorer.prefilter"] or p50["probe.prefilter"],
        "scorer.prefilter_keep": mean("scorer.prefilter", "kept") or mean("probe.prefilter", "kept"),
        "scorer.verify_ms": p50["scorer.verify"],
        "scorer.verify_tables": mean("scorer.verify", "tables"),
        "scorer.verify_us_per_table": statistics.median(
            seconds * 1e6 / max(count, 1) for seconds, count in verify
        ),
        "service.self_ms": sum(p50[name] for name in SERVICE_GLUE),
        "service.stage_sum_ms": stage_sum,
        "service.stage_sum_gap_frac": abs(stage_sum - query_p50_ms) / query_p50_ms,
        "service.query_p95_ms": percentile_with_support(plain_samples),
        "obs.trace_overhead_frac": quiet_op_median_ms(traced) / quiet_op_median_ms(plain)
        - 1.0,
    }


def ground_truth_metrics(
    exhaustive: Sequence[Dict[str, float]], source_ids: Sequence[str], k: int = K
) -> Dict[str, float]:
    """How the model itself ranks each chart's source table (no index involved)."""

    def cluster(table_id: str) -> int:
        digits = table_id.rsplit("_", 1)[-1]
        return int(digits) % NUM_CLUSTERS if table_id.startswith("synth_") else -1

    precision, rank_frac = [], []
    for scores, source in zip(exhaustive, source_ids):
        ranked = sorted(scores, key=scores.get, reverse=True)
        precision.append(
            sum(cluster(t) == cluster(source) for t in ranked[:k]) / k
        )
        rank_frac.append(ranked.index(source) / len(ranked))
    return {
        "fcm.gt_cluster_prec_at_10": statistics.fmean(precision),
        "fcm.gt_source_rank_frac": statistics.fmean(rank_frac),
    }


# --------------------------------------------------------------------- #
# Fixture probes: layers no query passes through, on one fixed corpus
# --------------------------------------------------------------------- #
FIXTURE_TABLES = {"full": 200, "smoke": 50}
FIXTURE_CHARTS = 12


def probe_build(model, tables) -> Dict[str, float]:
    scorer = FCMScorer(model)
    encode = _timed(lambda: scorer.index_repository(tables))

    def index() -> None:
        tree = IntervalTree()
        lsh = RandomHyperplaneLSH(
            MODEL_CONFIG.embed_dim, config=LSH_CONFIG, dtype=MODEL_CONFIG.numeric_dtype
        )
        for table in tables:
            tree.add_table(table)
            lsh.add(table.table_id, scorer.encoded_table(table.table_id).column_embeddings)
        tree.build()

    return {
        "build.encode_ms_per_table": encode * 1e3 / len(tables),
        "build.index_ms_per_table": _timed(index) * 1e3 / len(tables),
    }


def probe_scoring(service: SearchService, tables, sources, charts) -> Dict[str, float]:
    """Render cost, result-cache hit cost and the fused/graphed scoring ratio."""
    render = [
        _timed(
            lambda: render_chart_for_table(
                tables[i], tables[i].column_names, spec=MODEL_CONFIG.chart_spec
            )
        )
        for i in sources
    ]
    ids = sorted(service.table_ids)
    fused, graphed = [], []
    for chart in charts:
        results = {}
        service.scorer.score_chart_batch(chart, table_ids=ids)  # pads the batch once
        for flag, sink in ((True, fused), (False, graphed)):
            start = time.perf_counter()
            results[flag] = service.scorer.score_chart_batch(chart, table_ids=ids, fused=flag)
            sink.append(time.perf_counter() - start)
        worst = max(abs(results[True][t] - results[False][t]) for t in ids)
        if worst > 1e-8:
            raise AssertionError(f"fused and graphed scores differ by {worst}")
    for chart in charts:
        service.query(chart, K)
    hits = [_timed(lambda: service.query(chart, K)) for chart in charts]
    return {
        "charts.render_ms": _p50_ms(render),
        "service.query_hit_ms": _p50_ms(hits),
        "scorer.fused_vs_graphed_ratio": statistics.median(graphed) / statistics.median(fused),
    }


def probe_persistence(model, service: SearchService, extra_tables, directory) -> Dict[str, float]:
    path = directory / "fixture.npz"
    save = _timed(lambda: service.save_index(path, layout="v2"))
    stored = sum(f.stat().st_size for f in directory.glob("fixture*"))
    loads = {}
    for label, mmap in (("copy", False), ("mmap", True)):
        config = ServingConfig(lsh_config=LSH_CONFIG, mmap_index=mmap)
        times = [
            _timed(lambda: SearchService.load_index(model, path, config))
            for _ in range(5)
        ]
        loads[label] = statistics.median(times)
    service.add_tables(extra_tables)
    append = _timed(lambda: service.save_index(path, append=True))
    segment_bytes = sum(f.stat().st_size for f in snapshot_segments(path))
    service.remove_tables([t.table_id for t in extra_tables])
    return {
        "persistence.save_v2_s": save,
        "persistence.load_copy_s": loads["copy"],
        "persistence.load_mmap_s": loads["mmap"],
        "persistence.bytes_per_table": stored / service.num_tables,
        "persistence.append_segment_ms": append * 1e3,
        "persistence.segment_bytes": float(segment_bytes),
    }


def probe_streaming(service: SearchService, charts, seed: int, appends: int = 12) -> Dict[str, float]:
    """One stream and four standing subscriptions on the fixture service."""
    initial, batch = 1024, 64
    history = stream_rows(0, initial + appends * batch, seed)

    def rows(start: int, stop: int):
        return {name: values[start:stop] for name, values in history.items()}

    service.append_rows("probe_stream", rows(0, initial))
    subscriptions = [service.subscribe(c, k=1, threshold=0.0) for c in charts[:4]]
    append, alert, notify, after, steady = [], [], [], [], []
    events = dirty = reencode = 0.0
    for number in range(appends):
        start = initial + number * batch
        begin = time.perf_counter()
        result = service.append_rows("probe_stream", rows(start, start + batch))
        append.append(time.perf_counter() - begin)
        polled = service.poll(subscriptions[0])
        alert.append(time.perf_counter() - begin)
        if not polled:
            raise AssertionError("a threshold-0 subscription produced no event")
        events += result.events_fired
        dirty += len(result.dirty_segments)
        reencode += result.reencode_fraction
        dirty_map = {"probe_stream": result.dirty_segments}
        totals = {"probe_stream": result.total_rows}
        notify.append(_timed(lambda: service.subscriptions.notify(dirty_map, totals)))
        for subscription in subscriptions:
            service.poll(subscription)
        # The append invalidated the result, pad and pack caches: the first
        # query pays for that, the second (another chart) does not.
        after.append(_timed(lambda: service.query(charts[4 + number % 4], K)))
        steady.append(_timed(lambda: service.query(charts[8 + number % 4], K)))
    for subscription in subscriptions:
        service.unsubscribe(subscription)
    service.remove_tables(["probe_stream"])
    return {
        "streaming.append_rows_ms": _p50_ms(append),
        "streaming.rows_per_s": batch / statistics.median(append),
        "streaming.reencode_frac": reencode / appends,
        "streaming.dirty_segments": dirty / appends,
        "streaming.notify_ms": _p50_ms(notify),
        "streaming.events_fired": events / appends,
        "streaming.ingest_to_alert_ms": _p50_ms(alert),
        "streaming.query_after_write_ms": _p50_ms(after),
        "streaming.query_steady_ms": _p50_ms(steady),
    }


def probe_http(service: SearchService, tables, sources, extra, seed: int) -> Dict[str, float]:
    """Parse, handle and serialise in process; the same bodies over the wire."""
    bodies = [query_body(tables[i]) for i in sources]
    spec = MODEL_CONFIG.chart_spec
    payloads = [json.loads(body) for body in bodies]
    parsed: list = []
    parse = [_timed(lambda: parsed.append(parse_query_payload(p, spec))) for p in payloads]
    results = [service.query(chart, K) for chart, _, _ in parsed]
    serialise = [
        _timed(lambda: json.dumps(query_result_to_dict(r, K, "hybrid"))) for r in results
    ]
    with ChartSearchServer(service, HTTPServingConfig(port=0, close_service=False)) as local:
        # Adding and removing a table clears the result cache and leaves the
        # index as it was: the first pass misses, the second hits.
        service.add_tables([extra])
        service.remove_tables([extra.table_id])
        miss = [_timed(lambda: local.handle_query(lambda: p)) for p in payloads]
        hit = [_timed(lambda: local.handle_query(lambda: p)) for p in payloads]

    server = ServerProcess(len(tables), seed)
    try:
        def wire_round(num_clients: int) -> Round:
            connections = [server.connect() for _ in range(num_clients)]
            try:
                return run_round(
                    [
                        [
                            Op("query", lambda c=c, b=b: post_query(c, b))
                            for b in bodies[i::num_clients] * 2
                        ]
                        for i, c in enumerate(connections)
                    ]
                )
            finally:
                for connection in connections:
                    connection.close()

        wire_round(1)  # fill the server's result cache: every later request hits
        one, two = wire_round(1), wire_round(2)
    finally:
        server.close()
    rejected = sum(
        1
        for sample in one.samples + two.samples
        if isinstance(sample.error, OpError) and sample.error.status == 429
    )
    wire_hit = statistics.median(latencies_ms(one.samples, "query"))
    return {
        "http.parse_ms": _p50_ms(parse),
        "http.serialise_ms": _p50_ms(serialise),
        "http.handle_miss_ms": _p50_ms(miss),
        "http.handle_hit_ms": _p50_ms(hit),
        "http.transport_overhead_ms": wire_hit - _p50_ms(hit),
        "http.lock_wait_ms": statistics.median(latencies_ms(two.samples, "query")) - wire_hit,
        "http.rejected_429": float(rejected),
    }


def probe_workers(model, tables, charts, reference: SearchService) -> Dict[str, float]:
    """Two-process build and two-process verification, parity asserted."""
    sharded = SearchService(model, ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0))
    build = _timed(lambda: sharded.build(tables, num_workers=2))
    if not sharded.last_shard_report.used_processes:
        raise AssertionError(f"sharded build fell back: {sharded.last_shard_report.fallback_reason}")
    pooled = SearchService(
        model,
        ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0, query_workers=2),
    )
    pooled.build(tables)
    try:
        times = []
        for chart in charts:
            start = time.perf_counter()
            ranking = pooled.query(chart, K).ranking
            times.append(time.perf_counter() - start)
            expected = reference.query(chart, K).ranking
            # Sharding changes each matcher batch's padding, hence the last bit.
            if [t for t, _ in ranking] != [t for t, _ in expected] or any(
                abs(a - b) > 1e-8 for (_, a), (_, b) in zip(ranking, expected)
            ):
                raise AssertionError("worker-pool ranking differs from in-process")
        if pooled.worker_fallback_reason is not None:
            raise AssertionError(f"worker pool fell back: {pooled.worker_fallback_reason}")
    finally:
        pooled.close()
    steady = statistics.median(times[1:])
    return {
        "sharding.build_2w_s": build,
        "workers.start_s": times[0] - steady,
        "workers.query_2w_p50_ms": steady * 1e3,
    }


def fixture_probes(seed: int, smoke: bool, directory) -> Dict[str, float]:
    """Every fixture probe on ``FIXTURE_TABLES`` tables of the run's seed."""
    count = FIXTURE_TABLES["smoke" if smoke else "full"]
    tables = make_tables(count + 4, seed)
    tables, extra = tables[:count], tables[count:]
    sources, charts = pick_charts(tables, FIXTURE_CHARTS, seed)
    model = load_model()
    service = SearchService(model, ServingConfig(lsh_config=LSH_CONFIG))
    service.build(tables)
    metrics = probe_build(model, tables)
    metrics.update(probe_scoring(service, tables, sources, charts))
    metrics.update(probe_persistence(model, service, extra, directory))
    metrics.update(probe_streaming(service, charts, seed))
    metrics.update(probe_http(service, tables, sources, extra[0], seed))
    metrics.update(probe_workers(model, tables, charts, service))
    return metrics
