"""What the HTTP tier puts on the socket: one write per reply, stdlib bytes.

The handler's socket is unbuffered, so a reply written as headers + body
leaves as two small segments, and with Nagle's algorithm on the second waits
for the client's delayed ACK (~40 ms on Linux).  Every reply therefore leaves
in exactly one ``wfile.write`` — and the bytes of that one write must be the
ones ``BaseHTTPRequestHandler.send_response`` / ``send_header`` /
``end_headers`` followed by a body write produce, which is what
:func:`stdlib_reply` re-enacts as the oracle.

``_RequestHandler._send`` puts the body in the header buffer behind the blank
line and flushes once; :class:`TestOneWritePerReply` pins it.  The handler
also turns Nagle off (``TCP_NODELAY``) for what one write does not cover: the
replies the stdlib writes itself, and the short last segment of a reply
longer than one segment.  :func:`test_a_cache_hit_round_trip_waits_on_no_timer`
times the stall itself on one keep-alive connection.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import socket
import statistics
import time

import pytest

from repro.data.synth import SynthConfig, synth_tables
from repro.fcm import FCMModel
from repro.index import LSHConfig
from repro.serving import (
    ChartSearchServer,
    HTTPServingConfig,
    SearchService,
    ServingConfig,
)
from repro.serving.http import (
    chart_payload_from_series,
    parse_chart_payload,
    query_result_to_dict,
)
from repro.serving.http import server as http_server
from repro.serving.http.server import PROMETHEUS_CONTENT_TYPE, _RequestHandler

FIXED_DATE = "Mon, 28 Sep 2026 12:00:00 GMT"
JSON_TYPE = "application/json"


class _RecordingWriter:
    """The handler's ``wfile`` with every ``write`` kept."""

    def __init__(self, raw, writes):
        self._raw, self._writes = raw, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture(scope="module")
def recorded():
    """Every ``wfile.write`` of every handler, in order; the date is pinned."""
    writes = []
    original_setup = _RequestHandler.setup

    def setup(handler):
        original_setup(handler)
        handler.wfile = _RecordingWriter(handler.wfile, writes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RequestHandler, "setup", setup)
        patch.setattr(
            _RequestHandler, "date_time_string", lambda self, timestamp=None: FIXED_DATE
        )
        yield writes


@pytest.fixture
def writes(recorded):
    recorded.clear()
    return recorded


def stdlib_reply(status, content_type, data, close=False, extra_headers=()):
    """The reply as the stdlib's own header machinery + a body write send it."""
    handler = _RequestHandler.__new__(_RequestHandler)
    handler.wfile = io.BytesIO()
    handler.request_version, handler.requestline = "HTTP/1.1", ""
    handler.date_time_string = lambda timestamp=None: FIXED_DATE
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(data)))
    if close:
        handler.send_header("Connection", "close")
    for name, value in extra_headers:
        handler.send_header(name, value)
    handler.end_headers()
    handler.wfile.write(data)
    return handler.wfile.getvalue()


def exchange(server, method, path, body=None, headers=()):
    """One request on its own connection → ``(status, headers, body bytes)``."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.putrequest(method, path)
        for name, value in headers:
            connection.putheader(name, value)
        if body is not None:
            connection.putheader("Content-Length", str(len(body)))
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def only_write(writes):
    assert len(writes) == 1, [len(w) for w in writes]
    reply = writes[0]
    writes.clear()
    return reply


@pytest.fixture(scope="module")
def service(tiny_fcm_config, small_records):
    service = SearchService(
        FCMModel(tiny_fcm_config),
        ServingConfig(lsh_config=LSHConfig(num_bits=6, hamming_radius=1)),
    )
    # Enough tables that a full ranking outgrows a stream buffer (8 KiB).
    filler = SynthConfig(num_tables=240, num_rows=48, max_columns=2, seed=3)
    service.build([r.table for r in small_records[:8]] + list(synth_tables(filler)))
    return service


@pytest.fixture(scope="module")
def server(service, recorded):
    config = HTTPServingConfig(port=0, close_service=False, max_inflight=1)
    with ChartSearchServer(service, config) as server:
        yield server


@pytest.fixture(scope="module")
def query(small_records):
    record = small_records[0]
    data = record.table.to_underlying_data(
        list(record.spec.y_columns), x_column=record.spec.x_column
    )
    return {"chart": chart_payload_from_series(data.series), "k": 3}


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class TestOneWritePerReply:
    def test_query_200_is_the_in_process_answer(self, server, service, writes, query):
        status, _, body = exchange(server, "POST", "/query", _json(query))
        assert status == 200
        assert only_write(writes) == stdlib_reply(200, JSON_TYPE, body)
        # The wire request filled the result cache; the in-process call is
        # served the same QueryResult, `seconds` included.
        spec = service.model.config.chart_spec
        result = service.query(parse_chart_payload(query["chart"], spec), 3)
        assert body == _json(query_result_to_dict(result, 3, "hybrid"))

    def test_malformed_json_400(self, server, writes):
        status, _, body = exchange(server, "POST", "/query", b"{broken")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]
        assert only_write(writes) == stdlib_reply(400, JSON_TYPE, body)

    def test_oversized_body_413(self, server, writes):
        declared = str(server.config.max_body_bytes + 1)
        status, headers, body = exchange(
            server, "POST", "/query", headers=[("Content-Length", declared)]
        )
        assert status == 413
        assert headers["Connection"] == "close"
        assert only_write(writes) == stdlib_reply(413, JSON_TYPE, body, close=True)

    def test_saturated_429_carries_retry_after(self, server, writes, query):
        assert server._admission.acquire(blocking=False)  # hold the one slot
        try:
            status, headers, body = exchange(server, "POST", "/query", _json(query))
        finally:
            server._admission.release()
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert body == _json(
            {
                "error": "server saturated: 1 requests already in flight; "
                "retry shortly",
                "max_inflight": 1,
            }
        )
        assert only_write(writes) == stdlib_reply(
            429, JSON_TYPE, body, close=True, extra_headers=[("Retry-After", "1")]
        )

    def test_draining_503(self, server, writes, query):
        server._draining.set()
        try:
            status, _, body = exchange(server, "POST", "/query", _json(query))
        finally:
            server._draining.clear()
        assert status == 503
        assert body == _json({"error": "server is draining; not admitting"})
        assert only_write(writes) == stdlib_reply(503, JSON_TYPE, body, close=True)

    def test_unknown_path_404(self, server, writes):
        status, _, body = exchange(server, "GET", "/nope")
        assert status == 404
        assert body == _json({"error": "unknown path /nope"})
        assert only_write(writes) == stdlib_reply(404, JSON_TYPE, body)

    def test_metrics_json(self, server, writes):
        status, _, body = exchange(server, "GET", "/metrics")
        assert status == 200
        assert _json(json.loads(body)) == body
        assert only_write(writes) == stdlib_reply(200, JSON_TYPE, body)

    def test_metrics_prometheus_text(self, server, writes):
        exchange(server, "GET", "/healthz")
        writes.clear()
        status, headers, body = exchange(server, "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert b"http_requests_total" in body
        assert only_write(writes) == stdlib_reply(200, PROMETHEUS_CONTENT_TYPE, body)

    def test_debug_reply_beyond_a_stream_buffer(self, server, writes, query):
        """A reply larger than ``io.DEFAULT_BUFFER_SIZE`` — the size at which
        a buffered ``wfile`` would split header and body again."""
        request = {**query, "k": 248, "strategy": "none", "debug": {"trace": True}}
        status, _, body = exchange(server, "POST", "/query", _json(request))
        assert status == 200
        assert len(body) > io.DEFAULT_BUFFER_SIZE
        assert json.loads(body)["debug"]["trace"]["name"] == "http_query"
        assert only_write(writes) == stdlib_reply(200, JSON_TYPE, body)

    def test_keep_alive_connection_gets_one_write_per_request(
        self, server, writes, query
    ):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(3):
                connection.request("POST", "/query", body=_json(query))
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
        assert len(writes) == 3


def test_every_accepted_connection_has_nagle_off(server):
    """``TCP_NODELAY`` on the server's side of a live connection."""
    sockets = []
    original_setup = _RequestHandler.setup

    def setup(handler):
        original_setup(handler)
        sockets.append(handler.connection)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RequestHandler, "setup", setup)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            [accepted] = sockets  # still open: the connection is kept alive
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            connection.close()


def test_an_http_0_9_request_gets_the_body_alone(server, writes):
    """No status line and no headers exist to carry the body: it is sent bare."""
    with socket.create_connection((server.host, server.port), timeout=30) as raw:
        raw.sendall(b"GET /nope\r\n\r\n")
        reply = b"".join(iter(lambda: raw.recv(65536), b""))
    assert reply == _json({"error": "unknown path /nope"})
    assert only_write(writes) == reply


def test_a_stalled_header_read_is_closed_at_the_header_bound(server, query, writes):
    """A client that sends a request line and never ends its headers holds
    a handler thread for ``HEADER_TIMEOUT_SECONDS``, not for the handler's
    30 s idle ``timeout``: a query beside it is answered (``max_inflight``
    is one slot here), and the stalled connection is closed with no reply
    once the header bound passes.  A keep-alive connection that idles longer
    than the header bound between two requests is still served: the idle
    timeout is back once a request's headers are in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(http_server, "HEADER_TIMEOUT_SECONDS", 0.3)
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(b"POST /query HTTP/1.1\r\nHost: localhost\r\n")
            start = time.monotonic()
            status, _, body = exchange(server, "POST", "/query", _json(query))
            assert status == 200
            assert raw.recv(65536) == b""  # closed, nothing sent
            stalled = time.monotonic() - start
        assert only_write(writes) == stdlib_reply(200, JSON_TYPE, body)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                time.sleep(0.6)  # idle past the header bound
        finally:
            connection.close()
    assert 0.25 <= stalled < 5 < _RequestHandler.timeout


def test_a_stalled_body_read_is_answered_408_at_the_header_bound(server, writes, capfd):
    """A client that declares a body and never sends it holds the admission
    slot (``max_inflight`` is one here) for ``HEADER_TIMEOUT_SECONDS``, not
    the 30 s idle ``timeout``: it is answered 408 with ``Connection:
    close``, the slot serves the next request, and the timed-out socket is
    not read again — nothing reaches stderr."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(http_server, "HEADER_TIMEOUT_SECONDS", 0.3)
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            start = time.monotonic()
            raw.sendall(b"POST /tables HTTP/1.1\r\nHost: localhost\r\nContent-Length: 10\r\n\r\n")
            reply = b"".join(iter(lambda: raw.recv(65536), b""))  # until the server closes
            stalled = time.monotonic() - start
        status, _, _ = exchange(server, "GET", "/tables")
    body = _json({"error": "request body not received in time"})
    assert reply == stdlib_reply(408, JSON_TYPE, body, close=True)
    assert stalled <= 1.0 and status == 200
    assert capfd.readouterr().err == ""


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="perf regression thresholds disabled via REPRO_SKIP_PERF_TESTS=1 "
    "(noisy shared runners)",
)
def test_a_cache_hit_round_trip_waits_on_no_timer(server, query):
    """Result-cache hits on one keep-alive connection, timed on loopback.

    A reply whose body waits on the client's delayed ACK takes ~40 ms; a hit
    that leaves at once takes a few.  The median of 15 sits far from both."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    body, seconds = _json(query), []
    try:
        for round_trip in range(16):  # the first fills the result cache
            start = time.perf_counter()
            connection.request("POST", "/query", body=body)
            response = connection.getresponse()
            response.read()
            if round_trip:
                seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(seconds) < 0.015, seconds
