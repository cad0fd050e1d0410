"""Tests for ``repro.serving.http``: the HTTP front-end over ``SearchService``.

Everything here talks to a **live socket** — a real :class:`ChartSearchServer`
bound to an ephemeral loopback port — because the properties under test are
exactly the ones a mock would fake: admission control answering 429 while a
request is genuinely in flight, a drain completing an accepted request while
refusing new ones, and wire-level details (``Retry-After``, ``Connection:
close``, 411/413 before the body is read).

The load-bearing acceptance property: a ranking fetched over ``POST /query``
is **byte-identical** (same ids, bit-exact scores after the JSON round-trip)
to :meth:`repro.serving.SearchService.query` on the same service.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMModel
from repro.index import LSHConfig
from repro.serving import (
    ChartSearchServer,
    HTTPServingConfig,
    SearchService,
    ServingConfig,
)
from repro.obs import parse_prometheus_text, stage_names
from repro.serving.http import (
    ProtocolError,
    chart_payload_from_series,
    parse_chart_payload,
    parse_snapshot_payload,
    table_payload_from_table,
)

STRATEGIES = ("none", "interval", "lsh", "hybrid")


# --------------------------------------------------------------------------- #
# A minimal HTTP client (stdlib; one connection per request)
# --------------------------------------------------------------------------- #
def _request(server, method, path, body=None, raw=None, timeout=30.0):
    """One request → ``(status, parsed_json_or_None, headers_dict)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        if raw is not None:
            data = raw
        elif body is not None:
            data = json.dumps(body).encode("utf-8")
        else:
            data = None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        return (
            response.status,
            json.loads(payload) if payload else None,
            dict(response.getheaders()),
        )
    finally:
        conn.close()


def _get(server, path):
    return _request(server, "GET", path)


def _post(server, path, body=None, raw=None):
    return _request(server, "POST", path, body=body, raw=raw)


def _bare_request(server, method, path, headers=()):
    """A hand-rolled request (no automatic Content-Length) for 411/413."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        payload = response.read()
        return (
            response.status,
            json.loads(payload) if payload else None,
            dict(response.getheaders()),
        )
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Shared fixtures: one server over a small built index
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def http_model(tiny_fcm_config):
    return FCMModel(tiny_fcm_config)


@pytest.fixture(scope="module")
def http_service(http_model, small_records):
    service = SearchService(
        http_model,
        ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
    )
    service.build([record.table for record in small_records[:8]])
    return service


@pytest.fixture(scope="module")
def server(http_service):
    server = ChartSearchServer(
        http_service, HTTPServingConfig(port=0, close_service=False)
    ).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def query_cases(small_records, tiny_fcm_config):
    """``(payload, chart)`` pairs: the wire form and the in-process form."""
    cases = []
    for record in small_records[:3]:
        data = record.table.to_underlying_data(
            list(record.spec.y_columns), x_column=record.spec.x_column
        )
        chart = render_chart_for_table(
            record.table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            spec=tiny_fcm_config.chart_spec,
        )
        cases.append((chart_payload_from_series(data.series), chart))
    return cases


def _slow_service(tiny_fcm_config, records, gate, entered):
    """A tiny service whose ``query`` blocks on ``gate`` (admission tests)."""
    service = SearchService(
        FCMModel(tiny_fcm_config),
        ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
    )
    service.build([record.table for record in records])
    original = service.query

    def blocking_query(chart, k, strategy="hybrid"):
        entered.set()
        assert gate.wait(timeout=30.0), "test gate never released"
        return original(chart, k, strategy=strategy)

    service.query = blocking_query
    return service


# --------------------------------------------------------------------------- #
# POST /query: parity with the in-process service
# --------------------------------------------------------------------------- #
class TestQueryParity:
    def test_rankings_byte_identical_to_in_process(
        self, server, http_service, query_cases
    ):
        """The acceptance bar: HTTP results equal SearchService.query bit-for-bit.

        Python's JSON encoder emits floats via ``repr`` and the decoder
        round-trips them exactly, so straight ``==`` on the scores is the
        right comparison — no tolerance.
        """
        for payload, chart in query_cases:
            for strategy in STRATEGIES:
                status, body, _ = _post(
                    server,
                    "/query",
                    {"chart": payload, "k": 5, "strategy": strategy},
                )
                assert status == 200
                expected = http_service.query(chart, 5, strategy=strategy)
                assert body["ranking"] == [
                    [table_id, float(score)]
                    for table_id, score in expected.ranking
                ]
                assert body["candidates"] == expected.candidates
                assert body["total_tables"] == expected.total_tables
                assert body["strategy"] == strategy
                assert body["k"] == 5

    def test_server_side_render_matches_service_cache(
        self, server, http_service, query_cases
    ):
        """Equal payloads hit the service's content-addressed result cache:
        the server renders the posted series under the *service's* chart
        spec, so the fingerprint matches the in-process render exactly."""
        payload, chart = query_cases[0]
        _post(server, "/query", {"chart": payload, "k": 4})
        hits_before = http_service.stats.per_strategy["hybrid"].cache_hits
        status, _, _ = _post(server, "/query", {"chart": payload, "k": 4})
        assert status == 200
        assert (
            http_service.stats.per_strategy["hybrid"].cache_hits
            == hits_before + 1
        )

    def test_strategy_defaults_to_hybrid(self, server, query_cases):
        payload, _ = query_cases[0]
        status, body, _ = _post(server, "/query", {"chart": payload, "k": 2})
        assert status == 200
        assert body["strategy"] == "hybrid"
        assert len(body["ranking"]) == 2

    def test_empty_index_answers_empty_ranking(self, tiny_fcm_config):
        service = SearchService(
            FCMModel(tiny_fcm_config),
            ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
        )
        with ChartSearchServer(service, HTTPServingConfig(port=0)) as server:
            status, body, _ = _post(
                server,
                "/query",
                {"chart": {"series": [{"y": [1.0, 2.0, 3.0]}]}, "k": 3},
            )
            assert status == 200
            assert body["ranking"] == []
            assert body["total_tables"] == 0


# --------------------------------------------------------------------------- #
# POST /query: structured 4xx errors (never hangs, never 5xx)
# --------------------------------------------------------------------------- #
class TestQueryValidation:
    def test_malformed_json_is_400(self, server):
        status, body, _ = _post(server, "/query", raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_non_object_body_is_400(self, server):
        status, body, _ = _post(server, "/query", body=[1, 2, 3])
        assert status == 400
        assert "JSON object" in body["error"]

    @pytest.mark.parametrize("k", [0, -3, 1.5, "5", True, None])
    def test_bad_k_is_400(self, server, query_cases, k):
        payload, _ = query_cases[0]
        status, body, _ = _post(
            server, "/query", {"chart": payload, "k": k}
        )
        assert status == 400
        assert "k" in body["error"]

    def test_missing_k_is_400(self, server, query_cases):
        status, body, _ = _post(server, "/query", {"chart": query_cases[0][0]})
        assert status == 400
        assert "'k'" in body["error"]

    def test_unknown_strategy_is_400(self, server, query_cases):
        status, body, _ = _post(
            server,
            "/query",
            {"chart": query_cases[0][0], "k": 3, "strategy": "quantum"},
        )
        assert status == 400
        assert "quantum" in body["error"]
        assert "hybrid" in body["error"]  # the allowed list is in the message

    def test_client_supplied_spec_is_rejected(self, server):
        status, body, _ = _post(
            server,
            "/query",
            {
                "chart": {"series": [{"y": [1.0, 2.0]}], "spec": {"width": 9}},
                "k": 3,
            },
        )
        assert status == 400
        assert "geometry" in body["error"]

    @pytest.mark.parametrize(
        "series",
        [
            [],
            [{"y": []}],
            [{"y": ["a", "b"]}],
            [{"y": [[1.0], [2.0]]}],
            [{"y": [1.0, 2.0], "x": [1.0]}],  # length mismatch
            [{"y": [1.0, 2.0], "colour": "red"}],  # unknown key
        ],
    )
    def test_bad_series_is_400(self, server, series):
        status, body, _ = _post(
            server, "/query", {"chart": {"series": series}, "k": 3}
        )
        assert status == 400
        assert "series" in body["error"]

    def test_non_finite_values_are_400(self, server):
        # json.dumps(allow_nan=True) emits bare NaN, which the server-side
        # json.loads accepts as float('nan') — the finite check must catch it.
        raw = b'{"chart": {"series": [{"y": [NaN, 1.0]}]}, "k": 3}'
        status, body, _ = _post(server, "/query", raw=raw)
        assert status == 400
        assert "finite" in body["error"]

    def test_empty_body_is_400(self, server):
        status, body, _ = _post(server, "/query", raw=b"")
        assert status == 400
        assert "empty" in body["error"]

    @pytest.mark.parametrize(
        "values",
        [["1", "2.5"], [True, False, 3], [1.0, None], [1.0, "nan"]],
    )
    def test_values_numpy_would_coerce_are_400(self, server, values):
        """Numeric strings, booleans and null convert to float64 without
        complaint; none of them is a JSON number."""
        column = {"name": "c", "values": values}
        for path, payload in [
            ("/query", {"chart": {"series": [{"y": values}]}, "k": 3}),
            ("/query", {"chart": {"series": [{"y": [1.0, 2.0], "x": values[:2]}]}, "k": 3}),
            ("/tables", {"tables": [{"table_id": "coerced", "columns": [column]}]}),
            ("/tables/coerced-stream/rows", {"columns": [column]}),
        ]:
            status, body, _ = _post(server, path, payload)
            assert status == 400, (path, body)
            assert "must contain only numbers" in body["error"]

    def test_integers_and_floats_mix_freely(self):
        chart = parse_chart_payload(
            {"series": [{"y": [1, 2.5, -3], "x": [0, 1, 2]}]}, ChartSpec()
        )
        assert chart.underlying.series[0].y.tolist() == [1.0, 2.5, -3.0]

    def test_integer_beyond_float64_is_400(self, server):
        raw = b'{"chart": {"series": [{"y": [1, 1%s]}]}, "k": 3}' % (b"0" * 400)
        status, body, _ = _post(server, "/query", raw=raw)
        assert status == 400
        assert "beyond float64" in body["error"]


# --------------------------------------------------------------------------- #
# Transport-level refusals: routes, methods, body sizes
# --------------------------------------------------------------------------- #
class TestTransportErrors:
    def test_unknown_path_is_404(self, server):
        status, body, _ = _get(server, "/nope")
        assert status == 404
        assert "unknown path" in body["error"]

    def test_wrong_method_on_known_path_is_405(self, server):
        for method, path in [
            ("GET", "/query"),
            ("DELETE", "/query"),
            ("POST", "/healthz"),
            ("DELETE", "/metrics"),
        ]:
            status, body, _ = _request(server, method, path)
            assert status == 405, (method, path)
            assert "not allowed" in body["error"]

    def test_missing_content_length_is_411(self, server):
        status, body, _ = _bare_request(server, "POST", "/query")
        assert status == 411
        assert "Content-Length" in body["error"]

    def test_oversized_body_refused_with_413_before_read(self, server):
        # Declare a huge body but never send it: the server must answer from
        # the headers alone and mark the (now unusable) connection closed.
        declared = server.config.max_body_bytes + 1
        status, body, headers = _bare_request(
            server, "POST", "/query",
            headers=[("Content-Length", str(declared))],
        )
        assert status == 413
        assert "exceeds" in body["error"]
        assert headers.get("Connection") == "close"

    def test_trailing_slash_routes_like_bare_path(self, server):
        status, body, _ = _get(server, "/healthz/")
        assert status == 200
        assert body["status"] == "ok"


# --------------------------------------------------------------------------- #
# Index mutation over HTTP: /tables round trip
# --------------------------------------------------------------------------- #
class TestTablesEndpoints:
    def test_add_list_query_delete_round_trip(
        self, server, http_service, small_records, tiny_fcm_config
    ):
        extra = small_records[8].table
        payload = table_payload_from_table(extra)
        before = http_service.num_tables

        status, body, _ = _post(server, "/tables", {"tables": [payload]})
        assert status == 200
        assert body["added"] == [extra.table_id]
        assert body["already_indexed"] == []
        assert body["num_tables"] == before + 1

        status, body, _ = _get(server, "/tables")
        assert status == 200
        assert extra.table_id in body["table_ids"]
        assert body["num_tables"] == before + 1

        # The new table is immediately queryable: a full ranking (k covers
        # the whole index) must include it.
        chart_payload = chart_payload_from_series(
            extra.to_underlying_data(
                [c.name for c in extra.columns if c.role == "y"],
                x_column=next(
                    (c.name for c in extra.columns if c.role == "x"), None
                ),
            ).series
        )
        status, body, _ = _post(
            server, "/query", {"chart": chart_payload, "k": before + 1}
        )
        assert status == 200
        assert extra.table_id in [table_id for table_id, _ in body["ranking"]]

        status, body, _ = _request(
            server, "DELETE", f"/tables/{extra.table_id}"
        )
        assert status == 200
        assert body["removed"] == extra.table_id
        assert body["num_tables"] == before

    def test_a_column_whose_sum_overflows_encodes_and_scores_finite(
        self, server, http_service, query_cases
    ):
        """Columns whose sum (and sum of squares) overflow float64 are
        z-normalised after dividing by their largest magnitude: the encoding
        and every score stay finite instead of NaN."""
        huge = Table(
            "overflowing",
            [
                Column("flat", np.full(64, 1e307)),
                Column("ramp", np.linspace(1e306, 1.7e308, 64)),
            ],
        )
        status, body, _ = _post(server, "/tables", {"tables": [table_payload_from_table(huge)]})
        assert status == 200 and body["added"] == [huge.table_id]
        try:
            entry = http_service.processor.scorer.encoded_table(huge.table_id)
            assert np.isfinite(entry.representations).all()
            assert np.isfinite(entry.column_embeddings).all()
            everything = http_service.num_tables
            status, body, _ = _post(
                server, "/query", {"chart": query_cases[0][0], "k": everything, "strategy": "none"}
            )
            assert status == 200
            scores = dict(body["ranking"])
            assert len(scores) == everything and huge.table_id in scores
            assert all(math.isfinite(score) for score in scores.values())
        finally:
            _request(server, "DELETE", f"/tables/{huge.table_id}")

    def test_re_adding_known_table_reports_already_indexed(
        self, server, http_service, small_records
    ):
        known = http_service.table_ids[0]
        record = next(
            r for r in small_records if r.table.table_id == known
        )
        status, body, _ = _post(
            server,
            "/tables",
            {"tables": [table_payload_from_table(record.table)]},
        )
        assert status == 200
        assert body["added"] == []
        assert body["already_indexed"] == [known]

    def test_delete_unknown_table_is_404(self, server):
        status, body, _ = _request(server, "DELETE", "/tables/ghost")
        assert status == 404
        assert "ghost" in body["error"]

    def test_duplicate_ids_in_one_request_are_400(self, server, small_records):
        payload = table_payload_from_table(small_records[9].table)
        status, body, _ = _post(
            server, "/tables", {"tables": [payload, payload]}
        )
        assert status == 400
        assert "duplicate" in body["error"]

    def test_malformed_table_is_400(self, server):
        status, body, _ = _post(
            server,
            "/tables",
            {"tables": [{"table_id": "t", "columns": [{"name": "c"}]}]},
        )
        assert status == 400
        assert "values" in body["error"]


# --------------------------------------------------------------------------- #
# POST /snapshot
# --------------------------------------------------------------------------- #
class TestSnapshotEndpoint:
    def test_snapshot_writes_a_loadable_index(
        self, server, http_service, tiny_fcm_config, tmp_path
    ):
        target = tmp_path / "http_index.npz"
        status, body, _ = _post(server, "/snapshot", {"path": str(target)})
        assert status == 200
        assert body["path"] == str(target)
        assert body["num_tables"] == http_service.num_tables
        assert target.exists()

        restored = SearchService.load_index(FCMModel(tiny_fcm_config), target)
        assert sorted(restored.table_ids) == sorted(http_service.table_ids)

    def test_snapshot_without_path_or_default_is_400(self, server):
        status, body, _ = _post(server, "/snapshot", {})
        assert status == 400
        assert "snapshot path" in body["error"]

    def test_parse_snapshot_payload_validates_append_flag(self):
        assert parse_snapshot_payload(None, "/tmp/x.npz") == ("/tmp/x.npz", False)
        assert parse_snapshot_payload(
            {"path": "a.npz", "append": True}, None
        ) == ("a.npz", True)
        with pytest.raises(ProtocolError):
            parse_snapshot_payload({"append": "yes", "path": "a.npz"}, None)


# --------------------------------------------------------------------------- #
# /healthz and /metrics
# --------------------------------------------------------------------------- #
class TestObservability:
    def test_healthz_reports_live_state(self, server, http_service):
        status, body, _ = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["num_tables"] == http_service.num_tables

    def test_metrics_exports_endpoint_and_service_stats(self, server):
        _get(server, "/healthz")  # guarantee at least one observed request
        status, body, _ = _get(server, "/metrics")
        assert status == 200
        assert body["uptime_seconds"] >= 0
        endpoint = body["endpoints"]["GET /healthz"]
        assert endpoint["requests"] >= 1
        assert endpoint["status_counts"]["200"] >= 1
        for key in ("mean", "max", "p50", "p95", "p99"):
            assert key in endpoint["latency_ms"]
        assert body["admission"]["max_inflight"] == server.config.max_inflight
        assert body["service"]["num_tables"] >= 1
        assert "hybrid" in body["service"]["per_strategy"]

    def test_validation_failures_are_counted_under_their_endpoint(
        self, server
    ):
        _post(server, "/query", raw=b"{broken")
        _, body, _ = _get(server, "/metrics")
        assert body["endpoints"]["POST /query"]["status_counts"]["400"] >= 1


# --------------------------------------------------------------------------- #
# Admission control: saturation answers 429, never hangs or 5xx
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_saturated_server_answers_429_with_retry_after(
        self, tiny_fcm_config, small_records, query_cases
    ):
        gate, entered = threading.Event(), threading.Event()
        service = _slow_service(
            tiny_fcm_config, small_records[:3], gate, entered
        )
        server = ChartSearchServer(
            service,
            HTTPServingConfig(port=0, max_inflight=1, retry_after_seconds=2.0),
        ).start()
        payload, _ = query_cases[0]
        first_result = {}

        def first_request():
            first_result["response"] = _post(
                server, "/query", {"chart": payload, "k": 3}
            )

        thread = threading.Thread(target=first_request)
        try:
            thread.start()
            assert entered.wait(timeout=30.0), "first query never started"

            # The slot is held: an over-admission request is rejected fast.
            start = time.perf_counter()
            status, body, headers = _post(
                server, "/query", {"chart": payload, "k": 3}
            )
            elapsed = time.perf_counter() - start
            assert status == 429
            assert "saturated" in body["error"]
            assert headers.get("Retry-After") == "2"
            assert headers.get("Connection") == "close"
            assert elapsed < 5.0  # rejected, not queued behind the slow query

            # The operator's view bypasses admission even when saturated.
            status, body, _ = _get(server, "/healthz")
            assert status == 200

            gate.set()
            thread.join(timeout=30.0)
            assert first_result["response"][0] == 200  # the admitted one won

            _, metrics, _ = _get(server, "/metrics")
            assert metrics["admission"]["rejected_429"] == 1
            assert (
                metrics["endpoints"]["POST /query"]["status_counts"]["429"] == 1
            )
        finally:
            gate.set()
            thread.join(timeout=10.0)
            server.close()

    def test_released_slot_admits_again(self, tiny_fcm_config, query_cases):
        service = SearchService(
            FCMModel(tiny_fcm_config),
            ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
        )
        server = ChartSearchServer(
            service, HTTPServingConfig(port=0, max_inflight=1)
        ).start()
        try:
            payload, _ = query_cases[0]
            for _ in range(3):  # sequential requests each reuse the one slot
                status, _, _ = _post(server, "/query", {"chart": payload, "k": 1})
                assert status == 200
        finally:
            server.close()


# --------------------------------------------------------------------------- #
# Graceful drain: in-flight completes, new work refused, listener dies
# --------------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_drain_completes_inflight_then_refuses_connections(
        self, tiny_fcm_config, small_records, query_cases
    ):
        gate, entered = threading.Event(), threading.Event()
        service = _slow_service(
            tiny_fcm_config, small_records[:3], gate, entered
        )
        server = ChartSearchServer(
            service, HTTPServingConfig(port=0, drain_timeout=30.0)
        ).start()
        payload, _ = query_cases[0]
        inflight_result, closer = {}, None

        def inflight_request():
            inflight_result["response"] = _post(
                server, "/query", {"chart": payload, "k": 3}
            )

        requester = threading.Thread(target=inflight_request)
        try:
            requester.start()
            assert entered.wait(timeout=30.0)

            closer = threading.Thread(target=server.close)
            closer.start()
            deadline = time.monotonic() + 10.0
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.draining

            # Mid-drain: still listening, but not admitting.
            status, body, _ = _post(server, "/query", {"chart": payload, "k": 3})
            assert status == 503
            assert "draining" in body["error"]
            status, body, _ = _get(server, "/healthz")
            assert status == 503
            assert body["status"] == "draining"

            # Release the in-flight request: it was admitted before the
            # drain began, so it must complete with a real answer.
            gate.set()
            requester.join(timeout=30.0)
            assert inflight_result["response"][0] == 200
            assert inflight_result["response"][1]["ranking"]  # a real answer

            closer.join(timeout=30.0)
            assert not closer.is_alive()

            # Fully drained: the listener is gone.
            with pytest.raises(ConnectionRefusedError):
                _get(server, "/healthz")
        finally:
            gate.set()
            requester.join(timeout=10.0)
            if closer is not None:
                closer.join(timeout=10.0)
            server.close()

    def test_close_is_idempotent_and_start_after_close_refused(
        self, tiny_fcm_config
    ):
        service = SearchService(
            FCMModel(tiny_fcm_config),
            ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
        )
        server = ChartSearchServer(service, HTTPServingConfig(port=0)).start()
        server.close()
        server.close()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            server.start()


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
class TestHTTPServingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"retry_after_seconds": 0.0},
            {"max_body_bytes": 0},
            {"drain_timeout": -1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HTTPServingConfig(**kwargs)


# --------------------------------------------------------------------------- #
# Observability: tracing, debug flags, Prometheus exposition
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_server(tiny_fcm_config, small_records):
    """A server with end-to-end tracing on (its own service: traces are
    per-instance state and must not leak into the shared ``server``)."""
    service = SearchService(
        FCMModel(tiny_fcm_config),
        ServingConfig(
            lsh_config=LSHConfig(num_bits=6, hamming_radius=1), tracing=True
        ),
    )
    service.build([record.table for record in small_records[:8]])
    server = ChartSearchServer(
        service, HTTPServingConfig(port=0, tracing=True)
    ).start()
    yield server
    server.close()


class TestTracing:
    #: The acceptance bar: one HTTP query covers at least these stages.
    CORE_STAGES = {"admission", "render", "cache", "candidates", "verify", "merge"}

    def test_http_query_produces_a_full_span_tree(
        self, traced_server, query_cases
    ):
        payload, _ = query_cases[0]
        status, _, _ = _post(traced_server, "/query", {"chart": payload, "k": 3})
        assert status == 200
        tree = traced_server.last_trace
        assert tree is not None and tree["name"] == "http_query"
        assert len(tree["trace_id"]) == 16
        names = stage_names(tree)
        assert self.CORE_STAGES <= names, sorted(names)
        assert len(names) >= 6

    def test_cache_hit_is_visible_in_the_trace(
        self, traced_server, query_cases
    ):
        payload, _ = query_cases[1]
        body = {"chart": payload, "k": 3}
        _post(traced_server, "/query", body)
        _post(traced_server, "/query", body)  # identical → result-cache hit
        cache_spans = [
            node
            for node in _walk(traced_server.last_trace)
            if node["name"] == "cache"
        ]
        assert cache_spans and cache_spans[0]["attributes"]["hit"] is True

    def test_debug_trace_returns_the_tree_in_the_response(
        self, traced_server, query_cases
    ):
        payload, _ = query_cases[2]
        status, body, _ = _post(
            traced_server,
            "/query",
            {"chart": payload, "k": 3, "debug": {"trace": True}},
        )
        assert status == 200
        tree = body["debug"]["trace"]
        assert tree["name"] == "http_query"
        assert self.CORE_STAGES <= stage_names(tree)

    def test_debug_profile_returns_a_cprofile_capture(
        self, traced_server, query_cases
    ):
        payload, _ = query_cases[0]
        status, body, _ = _post(
            traced_server,
            "/query",
            {"chart": payload, "k": 3, "debug": {"profile": True}},
        )
        assert status == 200
        assert "cumulative" in body["debug"]["profile"]

    def test_response_without_debug_flags_has_no_debug_key(
        self, traced_server, query_cases
    ):
        """Wire compatibility: tracing on the server must not change the
        response body an ordinary client sees."""
        payload, _ = query_cases[0]
        _, plain, _ = _post(traced_server, "/query", {"chart": payload, "k": 3})
        assert set(plain) == {
            "k", "strategy", "ranking", "candidates", "total_tables", "seconds",
        }
        _, flagged_off, _ = _post(
            traced_server,
            "/query",
            {"chart": payload, "k": 3, "debug": {"trace": False}},
        )
        assert set(flagged_off) == set(plain)
        assert flagged_off["ranking"] == plain["ranking"]

    def test_debug_trace_works_on_an_untraced_server(
        self, server, query_cases
    ):
        """Per-request opt-in: the shared (untraced) server still returns a
        span tree when asked, covering the service stages."""
        payload, _ = query_cases[0]
        status, body, _ = _post(
            server,
            "/query",
            {"chart": payload, "k": 3, "debug": {"trace": True}},
        )
        assert status == 200
        names = stage_names(body["debug"]["trace"])
        assert {"cache", "candidates", "verify", "merge"} <= names

    @pytest.mark.parametrize(
        "debug",
        [{"unknown": True}, {"trace": "yes"}, ["trace"], 1],
    )
    def test_malformed_debug_objects_are_rejected(
        self, server, query_cases, debug
    ):
        payload, _ = query_cases[0]
        status, body, _ = _post(
            server, "/query", {"chart": payload, "k": 3, "debug": debug}
        )
        assert status == 400
        assert "debug" in body["error"]


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class TestPrometheusEndpoint:
    def test_exposition_passes_the_strict_validator(self, server):
        prior = _healthz_requests(server)
        _get(server, "/healthz")  # at least one observed request
        _settled_metrics(server, min_healthz=prior + 1)
        status, text, headers = _request_text(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus_text(text)
        for series in (
            "http_requests_total",
            "http_request_latency_ms",
            "http_admission_rejected_total",
            "http_draining_rejected_total",
            "http_uptime_seconds",
            "service_tables",
            "service_worker_fallback_active",
            "repro_exact_pack_builds_total",
            "repro_exact_pack_rows_projected_total",
            "repro_exact_pack_bytes",
            "repro_score_rows_repaired_total",
            "repro_score_row_calls_reused_total",
            "repro_score_row_calls_rerun_total",
        ):
            assert series in parsed, f"missing {series}"
        assert parsed["http_requests_total"]["type"] == "counter"
        assert parsed["http_request_latency_ms"]["type"] == "summary"
        healthz = [
            (labels, value)
            for name, labels, value in parsed["http_requests_total"]["samples"]
            if labels.get("endpoint") == "GET /healthz"
            and labels.get("status") == "200"
        ]
        assert healthz and healthz[0][1] >= 1

    def test_json_and_prometheus_agree_on_request_counts(self, server):
        prior = _healthz_requests(server)
        _get(server, "/healthz")
        body = _settled_metrics(server, min_healthz=prior + 1)
        json_count = body["endpoints"]["GET /healthz"]["status_counts"]["200"]
        _, text, _ = _request_text(server, "/metrics?format=prometheus")
        samples = parse_prometheus_text(text)["http_requests_total"]["samples"]
        prom_count = sum(
            value
            for _, labels, value in samples
            if labels.get("endpoint") == "GET /healthz"
            and labels.get("status") == "200"
        )
        assert prom_count == json_count

    def test_unknown_format_is_a_400(self, server):
        status, body, _ = _get(server, "/metrics?format=xml")
        assert status == 400
        assert "format" in body["error"]

    def test_json_metrics_report_fallback_kind(self, server):
        _, body, _ = _get(server, "/metrics")
        service = body["service"]
        assert "worker_fallback_kind" in service
        assert service["worker_fallback_kind"] in (None, "failure", "closed")


def _healthz_requests(server):
    _, body, _ = _get(server, "/metrics")
    return body["endpoints"].get("GET /healthz", {"requests": 0})["requests"]


def _settled_metrics(server, min_healthz, timeout=5.0):
    """Poll JSON ``/metrics`` until ``GET /healthz`` shows >= ``min_healthz``.

    Request metrics are observed *after* the response bytes are flushed
    (the handler's ``finally`` runs once the client already has its reply),
    so a scrape racing the handler thread can legally miss the request it
    just made.  Polling for the expected count makes count-comparison
    assertions deterministic.
    """
    deadline = time.monotonic() + timeout
    while True:
        _, body, _ = _get(server, "/metrics")
        observed = body["endpoints"].get("GET /healthz", {"requests": 0})["requests"]
        if observed >= min_healthz:
            return body
        assert time.monotonic() < deadline, "healthz request never observed"
        time.sleep(0.01)


def _request_text(server, path):
    """GET returning the raw (non-JSON) body, for the Prometheus format."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.read().decode("utf-8"),
            dict(response.getheaders()),
        )
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Streaming ingest + subscriptions over the wire
# --------------------------------------------------------------------------- #
def _rows_payload(start, size, seed=0, y_name="y"):
    import numpy as np

    rng = np.random.default_rng(seed + start)
    walk = np.cumsum(rng.normal(0.0, 1.0, size))
    columns = [
        {"name": "x", "values": [float(v) for v in range(start, start + size)]},
        {"name": y_name, "values": [float(v) for v in walk]},
    ]
    if start == 0:
        columns[0]["role"] = "x"
    return {"columns": columns}


class TestStreamingEndpoints:
    @pytest.fixture(scope="class")
    def stream_server(self, tiny_fcm_config, small_records):
        from repro.serving import StreamingConfig

        service = SearchService(
            FCMModel(tiny_fcm_config),
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6, hamming_radius=1),
                streaming=StreamingConfig(segment_rows=32),
                tracing=True,
            ),
        )
        service.build([record.table for record in small_records[:4]])
        server = ChartSearchServer(
            service, HTTPServingConfig(port=0, tracing=True, close_service=False)
        ).start()
        yield server
        server.close()

    def test_append_subscribe_poll_round_trip(self, stream_server, query_cases):
        payload, _ = query_cases[0]
        status, body, _ = _post(
            stream_server,
            "/subscriptions",
            {"chart": payload, "k": 2, "threshold": 0.0},
        )
        assert status == 200
        subscription_id = body["subscription_id"]
        assert body["k"] == 2 and body["threshold"] == 0.0

        status, body, _ = _post(
            stream_server, "/tables/live-rt/rows", _rows_payload(0, 40)
        )
        assert status == 200
        assert body["created"] is True
        assert body["table_id"] == "live-rt"
        assert body["total_rows"] == 40
        assert body["segments_total"] == 2
        assert len(body["dirty_segments"]) == 2
        assert body["events_fired"] >= 1

        status, body, _ = _get(stream_server, "/subscriptions")
        assert status == 200
        entry = next(
            e for e in body["subscriptions"]
            if e["subscription_id"] == subscription_id
        )
        assert entry["pending"] >= 1
        assert entry["stats"]["events_delivered"] >= 1

        status, body, _ = _get(
            stream_server, f"/subscriptions/{subscription_id}/events?max=10"
        )
        assert status == 200
        assert body["events"]
        event = body["events"][0]
        assert event["table_id"] == "live-rt"
        assert event["segment_id"].startswith("live-rt::seg-")
        assert event["seq"] >= 1
        assert body["pending"] == 0
        status, body, _ = _get(
            stream_server, f"/subscriptions/{subscription_id}/events"
        )
        assert status == 200 and body["events"] == []

        # A tail append re-encodes a strict subset, visible on the wire.
        status, body, _ = _post(
            stream_server, "/tables/live-rt/rows", _rows_payload(40, 10)
        )
        assert status == 200
        assert body["created"] is False
        assert body["reencode_fraction"] < 1.0

        status, body, _ = _request(
            stream_server, "DELETE", f"/subscriptions/{subscription_id}"
        )
        assert status == 200 and body["removed"] == subscription_id
        status, _, _ = _get(
            stream_server, f"/subscriptions/{subscription_id}/events"
        )
        assert status == 404

    def test_append_validation_errors(self, stream_server, small_records):
        static_id = small_records[0].table.table_id
        status, body, _ = _post(
            stream_server, f"/tables/{static_id}/rows", _rows_payload(0, 8)
        )
        assert status == 400
        assert "static" in body["error"]

        _post(stream_server, "/tables/live-val/rows", _rows_payload(0, 8))
        status, body, _ = _post(
            stream_server,
            "/tables/live-val/rows",
            _rows_payload(8, 8, y_name="other"),
        )
        assert status == 400  # column set mismatch

        status, body, _ = _post(
            stream_server,
            "/tables/live-val/rows",
            {"columns": [
                {"name": "x", "values": [8.0]},
                {"name": "y", "values": [float("nan")]},
            ]},
        )
        assert status == 400

        status, _, _ = _post(stream_server, "/tables//rows", _rows_payload(0, 4))
        assert status == 404
        status, _, _ = _get(
            stream_server, "/subscriptions/sub-999999/events"
        )
        assert status == 404
        status, _, _ = _request(
            stream_server, "DELETE", "/subscriptions/sub-999999"
        )
        assert status == 404
        status, _, _ = _get(
            stream_server, "/subscriptions/sub-999999/events?max=0"
        )
        assert status == 400
        status, _, _ = _post(
            stream_server, "/subscriptions", {"chart": [], "k": 1}
        )
        assert status == 400

    def test_metrics_export_streaming_counters(self, stream_server):
        _post(stream_server, "/tables/live-metrics/rows", _rows_payload(0, 12))
        status, body, _ = _get(stream_server, "/metrics")
        assert status == 200
        service = body["service"]
        assert service["rows_appended"] >= 12
        assert service["append_batches"] >= 1
        assert service["segments_encoded"] >= 1
        assert "subscription_events" in service
        assert "subscriptions_active" in service

    def test_append_produces_http_trace_with_subscription_span(
        self, stream_server, query_cases
    ):
        payload, _ = query_cases[1]
        _post(
            stream_server,
            "/subscriptions",
            {"chart": payload, "k": 1, "threshold": 0.0},
        )
        status, _, _ = _post(
            stream_server, "/tables/live-trace/rows", _rows_payload(0, 20)
        )
        assert status == 200
        tree = stream_server.last_trace
        assert tree is not None and tree["name"] == "http_append_rows"
        names = {node["name"] for node in _walk(tree)}
        assert {"render", "append_rows", "notify", "subscription"} <= names
