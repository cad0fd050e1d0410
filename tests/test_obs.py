"""Tests for ``repro.obs``: metrics, tracing, logging, profiling.

The properties worth pinning are exactly the ones the serving layer leans
on:

* the metrics registry survives **concurrent** ``inc``/``observe`` from
  many threads with exact totals (the HTTP server mutates it from
  ``ThreadingHTTPServer`` handler threads);
* the Prometheus rendering round-trips through the strict
  :func:`~repro.obs.parse_prometheus_text` validator — the same one the CI
  smoke job fails on — and the validator genuinely rejects malformed input;
* :func:`~repro.obs.span` is a **no-op without an active trace** (the
  warm-path overhead budget depends on it) and a correct tree-builder with
  one;
* the query worker answers a shard with its scores as an array aligned
  with the ids, and an error reply rather than an exit on a bad shard —
  driven through the *real* :func:`~repro.serving.workers._worker_main`
  loop on an in-process pipe, so both ends of the protocol are the shipped
  code.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import threading
import time
import types

import numpy as np
import pytest

from repro.charts import render_chart_for_table
from repro.fcm import FCMModel
from repro.fcm.scorer import FCMScorer
from repro.obs import (
    LogConfig,
    MetricsRegistry,
    Span,
    configure_logging,
    get_logger,
    maybe_log_slow_query,
    parse_prometheus_text,
    profile_block,
    slow_query_threshold_ms,
    span,
    stage_names,
    start_trace,
    trace_root,
)
from repro.obs.tracing import _NULL_SPAN, current_span
from repro.serving.workers import _worker_main


# --------------------------------------------------------------------------- #
# Metrics: semantics
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_counts_per_label_set(self):
        registry = MetricsRegistry()
        c = registry.counter("requests_total", "requests")
        c.inc(endpoint="a")
        c.inc(2.0, endpoint="a")
        c.inc(endpoint="b")
        assert c.value(endpoint="a") == 3.0
        assert c.value(endpoint="b") == 1.0
        assert c.value(endpoint="never") == 0.0

    def test_counter_rejects_negative_increments(self):
        c = MetricsRegistry().counter("n_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("inflight")
        g.set(5.0)
        g.inc()
        g.dec(2.0)
        assert g.value() == 4.0

    def test_histogram_snapshot_summarises_reservoir(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency_ms", "latency", reservoir=100)
        for v in range(1, 101):
            h.observe(float(v), endpoint="q")
        assert h.count(endpoint="q") == 100
        assert h.sum(endpoint="q") == pytest.approx(5050.0)
        (series,) = registry.snapshot()["latency_ms"]["series"]
        assert series["labels"] == {"endpoint": "q"}
        assert series["count"] == 100
        assert series["mean"] == pytest.approx(50.5)
        assert series["max"] == 100.0
        assert series["p50"] <= series["p95"] <= series["p99"] <= 100.0

    def test_histogram_reservoir_is_bounded(self):
        h = MetricsRegistry().histogram("lat", reservoir=8)
        for v in range(1000):
            h.observe(float(v))
        # Exact totals survive the bounded ring; percentiles use recents.
        assert h.count() == 1000
        assert h.sum() == pytest.approx(sum(range(1000)))

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total").inc(**{"bad-label": "v"})


# --------------------------------------------------------------------------- #
# Metrics: thread safety (the ThreadingHTTPServer contract)
# --------------------------------------------------------------------------- #
class TestMetricsThreadSafety:
    def test_concurrent_observe_from_many_threads_keeps_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        histogram = registry.histogram("lat_ms", reservoir=64)
        num_threads, per_thread = 8, 500
        barrier = threading.Barrier(num_threads)

        def hammer(thread_index: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                counter.inc(endpoint="q")
                histogram.observe(float(i), endpoint="q")

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(endpoint="q") == num_threads * per_thread
        assert histogram.count(endpoint="q") == num_threads * per_thread
        # The rendering must also be coherent after the stampede.
        parsed = parse_prometheus_text(registry.render_prometheus())
        (sample,) = [
            s for s in parsed["hits_total"]["samples"] if s[0] == "hits_total"
        ]
        assert sample[2] == num_threads * per_thread


# --------------------------------------------------------------------------- #
# Prometheus exposition: render → strict parse round trip
# --------------------------------------------------------------------------- #
class TestPrometheusExposition:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests served").inc(
            3, endpoint="GET /healthz", status="200"
        )
        registry.gauge("inflight", "in flight").set(2)
        h = registry.histogram("latency_ms", "latency")
        for v in (1.0, 2.0, 3.0):
            h.observe(v, endpoint="q")
        return registry

    def test_round_trip_through_the_validator(self):
        parsed = parse_prometheus_text(self._registry().render_prometheus())
        assert parsed["requests_total"]["type"] == "counter"
        assert parsed["inflight"]["type"] == "gauge"
        assert parsed["latency_ms"]["type"] == "summary"
        (sample,) = parsed["requests_total"]["samples"]
        assert sample[1] == {"endpoint": "GET /healthz", "status": "200"}
        assert sample[2] == 3.0
        names = {name for name, _, _ in parsed["latency_ms"]["samples"]}
        assert names == {"latency_ms", "latency_ms_count", "latency_ms_sum",
                         "latency_ms_max"}
        quantiles = {
            labels["quantile"]
            for name, labels, _ in parsed["latency_ms"]["samples"]
            if name == "latency_ms"
        }
        assert quantiles == {"0.5", "0.95", "0.99"}

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total").inc(reason='he said "no"\nand left\\')
        parsed = parse_prometheus_text(registry.render_prometheus())
        (sample,) = parsed["odd_total"]["samples"]
        assert sample[1]["reason"] == 'he said \\"no\\"\\nand left\\\\'

    @pytest.mark.parametrize(
        "text, match",
        [
            ("orphan_metric 1\n", "no # TYPE"),
            ("# TYPE x counter\nx one\n", "unparsable sample value"),
            ("# TYPE x counter\nx{bad} 1\n", "malformed label pair"),
            ("# TYPE x counter\n# TYPE x counter\n", "duplicate TYPE"),
            ("# TYPE x flavour\n", "unknown metric type"),
            ("# TYPE x\n", "malformed TYPE"),
            ("!!!\n", "malformed sample"),
        ],
    )
    def test_validator_rejects_malformed_expositions(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_prometheus_text(text)

    def test_validator_accepts_special_values_and_comments(self):
        text = "# a comment\n# TYPE x gauge\nx +Inf\nx{k=\"v\"} 2 1700000000\n"
        parsed = parse_prometheus_text(text)
        values = [v for _, _, v in parsed["x"]["samples"]]
        assert values[0] == float("inf") and values[1] == 2.0


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_span_without_a_trace_is_the_shared_noop(self):
        assert current_span() is None
        assert span("anything", key="value") is _NULL_SPAN
        with span("anything") as sp:
            assert sp is None

    def test_trace_builds_a_nested_tree(self):
        with start_trace("query", k=5) as root:
            trace_id = current_span().trace_id
            with span("candidates", strategy="hybrid") as sp:
                sp.attributes["candidates"] = 7
                with span("lsh_lookup"):
                    pass
            with span("verify"):
                pass
        assert root.trace_id == trace_id and len(trace_id) == 16
        tree = root.to_dict()
        assert tree["trace_id"] == trace_id
        assert tree["attributes"] == {"k": 5}
        assert [c["name"] for c in tree["children"]] == ["candidates", "verify"]
        candidates = tree["children"][0]
        assert candidates["attributes"]["candidates"] == 7
        assert [c["name"] for c in candidates["children"]] == ["lsh_lookup"]
        # Only the root carries the trace id in serialised form.
        assert "trace_id" not in candidates
        assert all(node["duration_ms"] >= 0.0 for node in tree["children"])
        assert stage_names(tree) == {
            "query", "candidates", "lsh_lookup", "verify"
        }

    def test_trace_context_is_restored_after_exit(self):
        with start_trace("outer"):
            assert current_span() is not None
        assert current_span() is None

    def test_attach_adopts_a_span_measured_elsewhere(self):
        admission = Span("admission")
        admission.duration = 0.002
        with start_trace("query") as root:
            current_span().attach(admission)
        assert stage_names(root) == {"query", "admission"}
        assert root.to_dict()["children"][0]["duration_ms"] == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #
class TestLogging:
    def teardown_method(self):
        configure_logging(level="off")

    def test_info_emits_one_json_line(self):
        stream = io.StringIO()
        configure_logging(level="info", format="json", stream=stream)
        get_logger("repro.test").info("thing_happened", tables=3, ok=True)
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["event"] == "thing_happened"
        assert record["logger"] == "repro.test"
        assert record["level"] == "info"
        assert record["tables"] == 3 and record["ok"] is True
        assert "ts" in record

    def test_off_emits_nothing(self):
        stream = io.StringIO()
        configure_logging(level="off", format="json", stream=stream)
        logger = get_logger("repro.test")
        assert not logger.enabled("info")
        logger.info("ignored")
        assert stream.getvalue() == ""

    def test_debug_requires_debug_level(self):
        stream = io.StringIO()
        configure_logging(level="info", format="json", stream=stream)
        get_logger("repro.test").debug("chatty")
        assert stream.getvalue() == ""
        configure_logging(level="debug", format="json", stream=stream)
        get_logger("repro.test").debug("chatty")
        assert "chatty" in stream.getvalue()

    def test_text_format_is_line_oriented(self):
        stream = io.StringIO()
        configure_logging(level="info", format="text", stream=stream)
        get_logger("repro.test").info("built", tables=2)
        line = stream.getvalue()
        assert "built" in line and "tables=2" in line

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        monkeypatch.setenv("REPRO_LOG_FORMAT", "text")
        config = LogConfig.from_env()
        assert config.level == 2 and config.format == "text"
        monkeypatch.setenv("REPRO_LOG", "1")  # truthy spelling → info
        assert LogConfig.from_env().level == 1
        monkeypatch.delenv("REPRO_LOG")
        assert LogConfig.from_env().level == 0


# --------------------------------------------------------------------------- #
# Profiling hooks
# --------------------------------------------------------------------------- #
class TestProfiling:
    def teardown_method(self):
        configure_logging(level="off")

    def test_threshold_parses_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        assert slow_query_threshold_ms() is None
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "250")
        assert slow_query_threshold_ms() == 250.0
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "not-a-number")
        assert slow_query_threshold_ms() is None
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "-5")
        assert slow_query_threshold_ms() is None

    def test_slow_query_dumps_the_span_tree(self):
        stream = io.StringIO()
        configure_logging(level="info", format="json", stream=stream)
        with start_trace("query") as root:
            with span("verify"):
                pass
        assert maybe_log_slow_query(root.to_dict(), threshold_ms=0.0)
        record = json.loads(stream.getvalue())
        assert record["event"] == "slow_query"
        assert record["trace_id"] == root.trace_id
        assert stage_names(record["spans"]) == {"query", "verify"}

    def test_fast_query_is_not_logged(self):
        stream = io.StringIO()
        configure_logging(level="info", format="json", stream=stream)
        with start_trace("query") as root:
            pass
        assert not maybe_log_slow_query(root.to_dict(), threshold_ms=1e9)
        assert stream.getvalue() == ""

    def test_trace_root_keeps_the_tree_and_logs_a_slow_one(self, monkeypatch):
        """The one way a trace root is finished: off, nested under an open
        trace, or on — then the tree lands on the owner and, past the
        threshold, in the slow-query log."""
        owner = types.SimpleNamespace(last_trace=None)
        with trace_root(owner, False, "query") as root:
            assert root is None and current_span() is None
        with start_trace("outer"):
            with trace_root(owner, True, "query") as root:
                assert root is None  # the open trace keeps its root
        assert owner.last_trace is None
        stream = io.StringIO()
        configure_logging(level="info", format="json", stream=stream)
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "1e-6")
        begun = time.perf_counter() - 1.0  # a stage measured before the root
        with trace_root(owner, True, "query", begun, k=3) as root:
            with span("verify"):
                pass
        assert owner.last_trace == root.to_dict()
        assert owner.last_trace["attributes"] == {"k": 3}
        assert owner.last_trace["duration_ms"] >= 1e3
        assert stage_names(owner.last_trace) == {"query", "verify"}
        record = json.loads(stream.getvalue())
        assert (record["event"], record["trace_id"]) == ("slow_query", root.trace_id)
        with pytest.raises(RuntimeError), trace_root(owner, True, "failed"):
            raise RuntimeError("not finished")
        assert owner.last_trace["trace_id"] == root.trace_id
        assert current_span() is None

    def test_profile_block_captures_the_enclosed_calls(self):
        def busy_helper():
            return sum(range(500))

        with profile_block() as capture:
            busy_helper()
        text = capture.text(top=10)
        assert "busy_helper" in text


# --------------------------------------------------------------------------- #
# The query worker's pipe protocol: the real worker loop over an in-process pipe
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def worker_conn(tiny_fcm_config, small_records):
    """The parent end of a pipe served by the *real* ``_worker_main`` loop,
    handed three tables' entries at start, plus the scorer they came from.

    Runs the worker in a thread: the property under test is the pipe
    protocol, not process isolation.
    """
    model = FCMModel(tiny_fcm_config)
    scorer = FCMScorer(model)
    tables = [record.table for record in small_records[:3]]
    scorer.index_repository(tables)
    entries = [scorer.encoded_table(t.table_id) for t in tables]
    parent_conn, child_conn = multiprocessing.Pipe()
    thread = threading.Thread(
        target=_worker_main,
        args=(child_conn, model.config, model.state_dict(), entries),
        daemon=True,
    )
    thread.start()
    kind, payload = parent_conn.recv()
    assert kind == "ready", payload

    record = small_records[0]
    chart = render_chart_for_table(
        record.table, list(record.spec.y_columns), x_column=record.spec.x_column
    )
    chart_input = scorer.prepare_query(chart)
    table_ids = [t.table_id for t in tables]
    yield parent_conn, scorer, chart_input, table_ids
    parent_conn.send(("stop",))
    thread.join(timeout=10)
    assert not thread.is_alive()
    parent_conn.close()


class TestWorkerProtocol:
    def test_score_answers_an_array_aligned_with_the_ids(self, worker_conn):
        conn, scorer, chart_input, table_ids = worker_conn
        shard = table_ids[::-1]
        conn.send(("score", chart_input, shard))
        kind, scores = conn.recv()
        assert kind == "ok"
        expected = scorer._score_ids(chart_input, shard)
        assert scores.dtype == np.float64 and scores.shape == (len(shard),)
        assert np.abs(scores - expected).max() <= 1e-12

    def test_an_unknown_id_is_an_error_reply_and_the_worker_serves_on(self, worker_conn):
        conn, _, chart_input, table_ids = worker_conn
        conn.send(("score", chart_input, ["never-indexed"]))
        kind, message = conn.recv()
        assert kind == "error" and "never-indexed" in message
        conn.send(("score", chart_input, table_ids[:1]))
        kind, scores = conn.recv()
        assert kind == "ok" and scores.shape == (1,)
