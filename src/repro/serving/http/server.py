"""A dependency-free threaded HTTP front-end over :class:`SearchService`.

This is the serving stack's first network boundary: JSON chart specs in,
ranked tables out, built entirely on the stdlib
(:class:`http.server.ThreadingHTTPServer`) so the container needs nothing
beyond what the repository already imports.

Endpoints
---------
==============================  =============================================
``POST /query``                 top-``k`` search for a JSON chart payload
``POST /tables``                add tables to the live index
``DELETE /tables/<id>``         remove one table
``GET /tables``                 list indexed table ids
``POST /tables/<id>/rows``      streaming ingest: append rows to a live
                                stream, re-encoding only dirty segments and
                                notifying standing subscriptions
``POST /subscriptions``         register a standing pattern query
``GET /subscriptions``          list active subscriptions + delivery stats
``GET /subscriptions/<id>/events``  drain pending events (``?max=N``)
``DELETE /subscriptions/<id>``  drop a standing query
``POST /snapshot``              persist the index (full base or delta-only
                                append segment)
``GET /healthz``                liveness (503 while draining)
``GET /metrics``                per-endpoint latency/status counters + the
                                service's counts (JSON; ``?format=prometheus``
                                renders the server's registry and the
                                service's in the Prometheus text exposition)
==============================  =============================================

Observability (see :mod:`repro.obs`): every endpoint's counters live in a
per-server :class:`repro.obs.metrics.MetricsRegistry`, every count of the
service in the service's own (:attr:`SearchService.registry`); a scrape
renders both and sets only the point-in-time gauges (uptime, in-flight
requests, tables, subscriptions, pack bytes, fallback state).  With
``ServingConfig(tracing=True)`` on the service — the one tracing switch —
each ``POST /query`` runs under a trace whose span tree covers admission →
render → cache → candidates → verify → merge (plus ``scatter_gather`` when
the service uses a query worker pool), feeds the ``REPRO_SLOW_QUERY_MS``
slow-query log and can be returned to the client via
``{"debug": {"trace": true}}`` in the request body, which also traces that
one request on an untraced service.
``{"debug": {"profile": true}}`` wraps just that request's service call in
``cProfile`` and returns the formatted profile.  Responses without a
``debug`` request key are byte-identical to an uninstrumented server's.

Failure-path behaviour — the part a real client hits first — is explicit:

* **Concurrency.**  Handler threads call the
  :class:`~repro.serving.service.SearchService` directly: a query takes no
  lock and never waits on a write, while writes, snapshots and
  subscription calls are serialised by the service itself.
* **Admission control.**  The server bounds how many requests execute at
  once at ``HTTPServingConfig.max_inflight``.  A request over the
  bound is answered immediately with **429** and a ``Retry-After`` header —
  overload degrades to fast rejections, never to unbounded queueing, hangs
  or 5xx (``benchmarks/load_gen.py`` demonstrates this under a deliberate
  overload burst).
* **Graceful drain.**  :meth:`ChartSearchServer.close` stops admitting new
  work (503), waits for in-flight requests to complete (bounded by
  ``drain_timeout``), then tears the listener down — a query accepted
  before the drain began always gets its response.
* **Structured errors.**  Malformed JSON, unknown strategies, ``k <= 0``,
  oversized bodies and unknown routes map to 400/413/404/405 JSON bodies
  via :class:`~repro.serving.http.protocol.ProtocolError`; only a genuine
  server-side defect produces a 500.

``GET /healthz`` and ``GET /metrics`` bypass admission control: the
operator's view must stay available precisely when the server is saturated.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs

from ...obs import (
    MetricsRegistry as ObsMetricsRegistry,
    Span,
    get_logger,
    profile_block,
    span,
    trace_root,
)
from ..service import SearchService
from .protocol import (
    ProtocolError,
    parse_query_debug,
    parse_query_payload,
    parse_rows_payload,
    parse_snapshot_payload,
    parse_subscribe_payload,
    parse_tables_payload,
    query_result_to_dict,
)

_log = get_logger("repro.serving.http")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: Content type of every other reply.
JSON_CONTENT_TYPE = "application/json"
#: Seconds a client may take over a request's headers once its request line
#: has arrived, and over its body once admitted; a stalled header read is
#: closed with no reply, a stalled body answered 408.  This bounds how long
#: a client that never finishes either holds a handler thread, and a body
#: an admission slot.
HEADER_TIMEOUT_SECONDS = 5.0


@dataclass
class HTTPServingConfig:
    """Knobs of the HTTP front-end (index knobs live in ``ServingConfig``).

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks a free ephemeral port (the bound
        port is on :attr:`ChartSearchServer.port`).
    max_inflight:
        Admission bound: how many service requests may execute at once.
        Requests beyond the bound get a 429 with ``Retry-After`` instead of
        joining an unbounded queue.
    retry_after_seconds:
        The hint sent in the 429 ``Retry-After`` header.
    max_body_bytes:
        Requests with a larger ``Content-Length`` are refused with 413
        before the body is read.
    drain_timeout:
        How long :meth:`ChartSearchServer.close` waits for in-flight
        requests before tearing the listener down anyway.
    snapshot_path:
        Default target of ``POST /snapshot`` when the body names none.
    close_service:
        When true, :meth:`ChartSearchServer.close` also closes the wrapped
        :class:`~repro.serving.service.SearchService` (releasing its query
        worker pool).

    Tracing is switched on the service (``ServingConfig(tracing=True)``),
    not here: see :meth:`ChartSearchServer.handle_query`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    retry_after_seconds: float = 1.0
    max_body_bytes: int = 8 * 1024 * 1024
    drain_timeout: float = 10.0
    snapshot_path: Optional[str] = None
    close_service: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


class EndpointMetricsRegistry:
    """Per-endpoint request counters over :mod:`repro.obs` primitives.

    Each :class:`ChartSearchServer` owns one (backed by a private
    :class:`repro.obs.metrics.MetricsRegistry`, so two servers in one
    process never mix counts).  The obs registry is the single source of
    truth with two read surfaces: :meth:`snapshot` reshapes it into the
    pinned per-endpoint JSON of ``GET /metrics``, and the registry's own
    ``render_prometheus`` serves ``GET /metrics?format=prometheus``.
    Concurrent ``observe`` calls from ``ThreadingHTTPServer`` handler
    threads are safe — all mutation goes through the registry's lock.
    """

    def __init__(self, registry: Optional[ObsMetricsRegistry] = None) -> None:
        self.registry = registry or ObsMetricsRegistry()
        self._requests = self.registry.counter(
            "http_requests_total", "requests served, by endpoint and status"
        )
        self._latency = self.registry.histogram(
            "http_request_latency_ms",
            "request latency in milliseconds, by endpoint",
        )
        self._rejected = self.registry.counter(
            "http_admission_rejected_total",
            "requests answered 429 at the admission bound",
        )
        self._draining = self.registry.counter(
            "http_draining_rejected_total",
            "requests answered 503 while the server drained",
        )

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        status_label = str(int(status))
        self._requests.inc(endpoint=endpoint, status=status_label)
        self._latency.observe(seconds * 1e3, endpoint=endpoint)
        if status == 429:
            self._rejected.inc()
        elif status == 503:
            self._draining.inc()

    @property
    def rejected_429(self) -> int:
        return int(self._rejected.value())

    @property
    def draining_503(self) -> int:
        return int(self._draining.value())

    def snapshot(self) -> Dict:
        """The per-endpoint JSON view (requests, status_counts, latency_ms)."""
        snap = self.registry.snapshot()
        endpoints: Dict[str, Dict] = {}
        for entry in snap["http_requests_total"]["series"]:
            endpoint = entry["labels"]["endpoint"]
            status = entry["labels"]["status"]
            info = endpoints.setdefault(
                endpoint,
                {
                    "requests": 0,
                    "status_counts": {},
                    "latency_ms": {"mean": 0.0, "max": 0.0},
                },
            )
            info["requests"] += int(entry["value"])
            info["status_counts"][status] = info["status_counts"].get(
                status, 0
            ) + int(entry["value"])
        for entry in snap["http_request_latency_ms"]["series"]:
            info = endpoints.get(entry["labels"]["endpoint"])
            if info is None:
                continue
            info["latency_ms"] = {
                "mean": entry["mean"],
                "max": entry["max"],
                "p50": entry["p50"],
                "p95": entry["p95"],
                "p99": entry["p99"],
            }
        return {
            name: {
                "requests": info["requests"],
                "status_counts": dict(sorted(info["status_counts"].items())),
                "latency_ms": info["latency_ms"],
            }
            for name, info in sorted(endpoints.items())
        }


class ChartSearchServer:
    """Serve a :class:`~repro.serving.service.SearchService` over HTTP.

    The server owns a listener thread plus one handler thread per
    connection (:class:`~http.server.ThreadingHTTPServer`) and holds no
    lock around the service, which is safe to share between threads.

    Example
    -------
    >>> server = ChartSearchServer(service).start()
    >>> server.url
    'http://127.0.0.1:43621'
    >>> # ... POST /query, /tables, /snapshot ...
    >>> server.close()          # drain in-flight requests, then stop
    """

    def __init__(
        self,
        service: SearchService,
        config: Optional[HTTPServingConfig] = None,
    ) -> None:
        self.service = service
        self.config = config or HTTPServingConfig()
        self.metrics = EndpointMetricsRegistry()
        #: Serialised span tree of the most recent traced ``POST /query`` or
        #: ingest batch (``ServingConfig(tracing=True)`` on the service, or
        #: a ``debug.trace`` request); ``None`` until one completes.
        self.last_trace: Optional[Dict] = None
        self._admission = threading.BoundedSemaphore(self.config.max_inflight)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = threading.Event()
        self._started_monotonic = time.monotonic()
        handler = type("_BoundHandler", (_RequestHandler,), {"owner": self})
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "ChartSearchServer":
        """Begin serving on a daemon listener thread (idempotent)."""
        if self._closed:
            raise RuntimeError("server already closed; build a new one")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-http-{self.port}",
                daemon=True,
            )
            self._thread.start()
            _log.info(
                "server_started",
                url=self.url,
                max_inflight=self.config.max_inflight,
                tracing=self.service.config.tracing,
                num_tables=self.service.num_tables,
            )
        return self

    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Drain in-flight requests, then stop serving (idempotent).

        New requests arriving during the drain are answered 503; requests
        admitted before it began run to completion (bounded by
        ``drain_timeout``, default ``config.drain_timeout``).  With
        ``config.close_service`` the wrapped service's worker pool is
        released as well.
        """
        if self._closed:
            return
        self._draining.set()
        deadline = time.monotonic() + (
            self.config.drain_timeout if drain_timeout is None else drain_timeout
        )
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=remaining)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.config.close_service:
            self.service.close()
        self._closed = True
        _log.info("server_closed", url=self.url)

    def __enter__(self) -> "ChartSearchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request bookkeeping (called from handler threads)
    # ------------------------------------------------------------------ #
    def _enter_request(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _exit_request(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    # Endpoint implementations (called under admission)
    # ------------------------------------------------------------------ #
    def handle_query(
        self,
        read_body: Callable[[], object],
        request_start: Optional[float] = None,
    ) -> Tuple[int, Dict]:
        """Serve one ``POST /query``.

        The request is traced when the service traces
        (``ServingConfig(tracing=True)``) or the body asks with
        ``debug.trace``; the ``http_query`` root then holds the stages
        measured before it opened — ``admission`` from ``request_start``
        (the dispatcher's clock at request entry) and ``render``, the
        deferred ``read_body`` plus the chart render — and the service's.
        A request without ``debug`` flags gets the same response body
        whether traced or not.
        """
        rendering = time.perf_counter()
        payload = read_body()
        chart, k, strategy = parse_query_payload(payload, self.service.model.config.chart_spec)
        debug = parse_query_debug(payload)
        rendered = time.perf_counter()
        traced = self.service.config.tracing or debug["trace"]
        with trace_root(self, traced, "http_query", rendering, k=k, strategy=strategy) as root:
            if root is not None:
                for name, begun, ended in (
                    ("admission", request_start, rendering),
                    ("render", rendering, rendered),
                ):
                    if begun is not None:
                        stage = Span(name)
                        stage.duration = ended - begun
                        root.attach(stage)
            # cProfile hooks the calling thread only: requests on other
            # handler threads stay out of this request's profile.
            with profile_block() if debug["profile"] else nullcontext() as profile_capture:
                result = self.service.query(chart, k, strategy=strategy)
        body = query_result_to_dict(result, k, strategy)
        if profile_capture is not None:
            body.setdefault("debug", {})["profile"] = profile_capture.text(top=30)
        if debug["trace"] and root is not None:
            body.setdefault("debug", {})["trace"] = root.to_dict()
        return 200, body

    def handle_add_tables(self, payload: object) -> Tuple[int, Dict]:
        tables = parse_tables_payload(payload)
        try:
            stats = self.service.add_tables(tables)
        except ValueError as exc:  # an id the service refuses
            raise ProtocolError(str(exc)) from exc
        fresh = set(stats.added)
        return 200, {
            "added": stats.added,
            "already_indexed": [t.table_id for t in tables if t.table_id not in fresh],
            "num_tables": stats.num_tables,
        }

    def handle_remove_table(self, table_id: str) -> Tuple[int, Dict]:
        stats = self.service.drop_tables([table_id])
        if not stats.removed:
            raise ProtocolError(f"unknown table id {table_id!r}", status=404)
        return 200, {"removed": table_id, "num_tables": stats.num_tables}

    def handle_list_tables(self) -> Tuple[int, Dict]:
        ids = sorted(self.service.table_ids)
        return 200, {"num_tables": len(ids), "table_ids": ids}

    # -- streaming ingest + subscriptions ------------------------------ #
    def handle_append_rows(
        self, table_id: str, read_body: Callable[[], object]
    ) -> Tuple[int, Dict]:
        """Serve one ``POST /tables/{id}/rows`` (streaming ingest).

        When the service traces, the whole batch — payload parse, segment
        re-encode, subscription notification — runs under one
        ``http_append_rows`` trace (the service's ``append_rows`` /
        ``notify`` / per-``subscription`` spans attach to it), as a traced
        ``POST /query`` does.
        """
        if not table_id:
            raise ProtocolError("missing table id in path", status=404)
        with trace_root(self, self.service.config.tracing, "http_append_rows", table_id=table_id):
            with span("render"):
                columns, roles = parse_rows_payload(read_body())
            try:
                result = self.service.append_rows(table_id, columns, roles=roles or None)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
        return 200, {
            "table_id": result.table_id,
            "rows_appended": int(result.rows_appended),
            "total_rows": int(result.total_rows),
            "segments_total": int(result.segments_total),
            "dirty_segments": list(result.dirty_segments),
            "reencode_fraction": float(result.reencode_fraction),
            "created": bool(result.created),
            "events_fired": int(result.events_fired),
        }

    def handle_subscribe(self, payload: object) -> Tuple[int, Dict]:
        spec = self.service.model.config.chart_spec
        chart, k, threshold = parse_subscribe_payload(payload, spec)
        subscription_id = self.service.subscribe(chart, k=k, threshold=threshold)
        return 200, {
            "subscription_id": subscription_id,
            "k": k,
            "threshold": threshold,
        }

    def handle_list_subscriptions(self) -> Tuple[int, Dict]:
        return 200, {"subscriptions": self.service.describe_subscriptions()}

    def handle_poll_subscription(
        self, subscription_id: str, max_events: Optional[int]
    ) -> Tuple[int, Dict]:
        try:
            subscription = self.service.subscriptions.get(subscription_id)
            events = self.service.poll(subscription_id, max_events=max_events)
        except KeyError:
            raise ProtocolError(
                f"unknown subscription {subscription_id!r}", status=404
            ) from None
        return 200, {
            "subscription_id": subscription_id,
            "events": [event.to_dict() for event in events],
            "pending": len(subscription.events),
            "stats": subscription.stats.to_dict(),
        }

    def handle_unsubscribe(self, subscription_id: str) -> Tuple[int, Dict]:
        if not self.service.unsubscribe(subscription_id):
            raise ProtocolError(
                f"unknown subscription {subscription_id!r}", status=404
            )
        return 200, {"removed": subscription_id}

    def handle_snapshot(self, payload: object) -> Tuple[int, Dict]:
        path, append = parse_snapshot_payload(
            payload, self.config.snapshot_path
        )
        written = self.service.save_index(path, append=append)
        return 200, {
            "path": str(written),
            "append": append,
            "num_tables": self.service.num_tables,
        }

    def handle_healthz(self) -> Tuple[int, Dict]:
        status = "draining" if self.draining else "ok"
        body = {
            "status": status,
            "num_tables": self.service.num_tables,
            "inflight": self.inflight,
        }
        return (503 if self.draining else 200), body

    def _set_gauges(self) -> None:
        """Set the point-in-time gauges a Prometheus scrape shows; every
        count is already a series of one of the two registries."""
        registry, service = self.metrics.registry, self.service
        for name, help_text, value in (
            ("http_uptime_seconds", "Seconds since the server started.",
             time.monotonic() - self._started_monotonic),
            ("http_inflight_requests", "Admitted requests currently in flight.", self.inflight),
            ("service_tables", "Tables currently in the live index.", service.num_tables),
            ("service_subscriptions_active", "Standing subscriptions registered.",
             len(service.subscriptions)),
            ("repro_exact_pack_bytes", "Private heap held by the exact pack's cached projections.",
             service.scorer.exact_pack_nbytes),
        ):
            registry.gauge(name, help_text).set(float(value))
        fallback_active = registry.gauge(
            "service_worker_fallback_active",
            "1 while the worker pool is sticky-disabled, by cause.",
        )
        for kind in ("failure", "closed"):
            fallback_active.set(float(kind == service.worker_fallback_kind), kind=kind)

    def handle_metrics(self, fmt: str = "json") -> Tuple[int, Union[Dict, str]]:
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(
                f"unknown metrics format {fmt!r}; expected 'json' or "
                "'prometheus'"
            )
        if fmt == "prometheus":
            self._set_gauges()
            return 200, (
                self.metrics.registry.render_prometheus()
                + self.service.registry.render_prometheus()
            )
        stats = self.service.stats
        service = {
            "num_tables": self.service.num_tables,
            **{field.name: getattr(stats, field.name) for field in fields(stats)},
            "subscriptions_active": len(self.service.subscriptions),
        }
        service["per_strategy"] = stats.summary()
        body = {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "endpoints": self.metrics.snapshot(),
            "admission": {
                "max_inflight": self.config.max_inflight,
                "inflight": self.inflight,
                "rejected_429": self.metrics.rejected_429,
                "draining_503": self.metrics.draining_503,
            },
            "service": service,
        }
        return 200, body


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`ChartSearchServer`."""

    #: Injected per server instance (``type(..., {"owner": self})``).
    owner: ChartSearchServer

    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections give up after this, so drained servers
    #: do not accumulate parked handler threads.
    timeout = 30.0
    #: ``TCP_NODELAY`` on every accepted socket, for the replies one write
    #: does not cover: those ``send_error`` writes itself, and a reply's
    #: short last segment, which Nagle would hold until an ACK arrives.
    disable_nagle_algorithm = True

    # Quiet by default: the serving metrics are the observable surface.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def parse_request(self) -> bool:
        """The stdlib's header read, under :data:`HEADER_TIMEOUT_SECONDS`
        instead of the idle :attr:`timeout`, which is restored for the wait
        for the next request on the connection (the body read has the same
        bound: :meth:`_read_json_body`).  A timeout raised here closes the
        connection (``handle_one_request``)."""
        self.connection.settimeout(HEADER_TIMEOUT_SECONDS)
        try:
            return super().parse_request()
        finally:
            self.connection.settimeout(self.timeout)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send(
        self,
        status: int,
        content_type: str,
        data: bytes,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        """Send one reply in one ``wfile.write``.

        The stdlib's header calls build the status line and headers; the
        body goes into the same buffer behind the blank line and leaves in
        one flush.  Written apart, headers and body leave as two segments,
        and with Nagle on the second waits for the client's delayed ACK
        (~40 ms).
        """
        self.send_response(int(status))
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            # Tell HTTP/1.1 clients the truth when an early rejection left
            # the request body unread and the connection must go down.
            self.send_header("Connection", "close")
        for name, value in extra_headers:
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(data)
            return
        self._headers_buffer += (b"\r\n", data)  # end_headers' blank line, the body
        self.flush_headers()

    def _read_json_body(self) -> object:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ProtocolError("Content-Length is required", status=411)
        digits = length_header.strip(" \t")
        if not (digits.isascii() and digits.isdigit()):  # RFC 9110: 1*DIGIT
            # Where the body ends is unknown: the connection is not reusable.
            self.close_connection = True
            raise ProtocolError("invalid Content-Length", status=400)
        length = int(digits)
        if length > self.owner.config.max_body_bytes:
            # Refuse before reading; the unread body makes the connection
            # unusable for keep-alive, so close it.
            self.close_connection = True
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{self.owner.config.max_body_bytes}-byte limit",
                status=413,
            )
        self.connection.settimeout(HEADER_TIMEOUT_SECONDS)
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # a timed-out socket is not read again
            raise ProtocolError("request body not received in time", status=408) from None
        finally:
            self.connection.settimeout(self.timeout)
        if not raw:
            raise ProtocolError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON body: {exc}") from exc

    def _route(self, method: str):
        """Resolve ``(endpoint_label, thunk, needs_admission)`` or raise."""
        owner = self.owner
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return "GET /healthz", owner.handle_healthz, False
        if method == "GET" and path == "/metrics":
            query_string = self.path.partition("?")[2]
            fmt = parse_qs(query_string).get("format", ["json"])[0]
            return "GET /metrics", lambda: owner.handle_metrics(fmt), False
        if method == "GET" and path == "/tables":
            return "GET /tables", owner.handle_list_tables, True
        # Bodies are read inside the thunk: after admission (a rejected
        # request never pays the read) and under the endpoint's own metrics
        # label (a malformed /query body is a `POST /query` 400).
        if method == "POST" and path == "/query":
            # The body-reading callable is handed over uncalled so a traced
            # request can parse it inside its `render` span.
            return (
                "POST /query",
                lambda: owner.handle_query(
                    self._read_json_body, request_start=self._dispatch_start
                ),
                True,
            )
        if method == "POST" and path == "/tables":
            return (
                "POST /tables",
                lambda: owner.handle_add_tables(self._read_json_body()),
                True,
            )
        if (
            method == "POST"
            and path.startswith("/tables/")
            and path.endswith("/rows")
        ):
            table_id = path[len("/tables/") : -len("/rows")]
            return (
                "POST /tables/<id>/rows",
                lambda: owner.handle_append_rows(table_id, self._read_json_body),
                True,
            )
        if path == "/subscriptions":
            if method == "POST":
                return (
                    "POST /subscriptions",
                    lambda: owner.handle_subscribe(self._read_json_body()),
                    True,
                )
            if method == "GET":
                return (
                    "GET /subscriptions",
                    owner.handle_list_subscriptions,
                    True,
                )
        if path.startswith("/subscriptions/"):
            rest = path[len("/subscriptions/") :]
            if method == "GET" and rest.endswith("/events"):
                subscription_id = rest[: -len("/events")]
                query_string = self.path.partition("?")[2]
                raw_max = parse_qs(query_string).get("max", [None])[0]
                max_events: Optional[int] = None
                if raw_max is not None:
                    try:
                        max_events = int(raw_max)
                    except ValueError:
                        raise ProtocolError(
                            f"max must be an integer, got {raw_max!r}"
                        ) from None
                    if max_events < 1:
                        raise ProtocolError(f"max must be >= 1, got {max_events}")
                return (
                    "GET /subscriptions/<id>/events",
                    lambda: owner.handle_poll_subscription(
                        subscription_id, max_events
                    ),
                    True,
                )
            if method == "DELETE" and "/" not in rest:
                return (
                    "DELETE /subscriptions/<id>",
                    lambda: owner.handle_unsubscribe(rest),
                    True,
                )
        if method == "POST" and path == "/snapshot":
            return (
                "POST /snapshot",
                lambda: owner.handle_snapshot(
                    self._read_json_body()
                    if self.headers.get("Content-Length") not in (None, "0")
                    else None
                ),
                True,
            )
        if method == "DELETE" and path.startswith("/tables/"):
            table_id = path[len("/tables/") :]
            return (
                "DELETE /tables/<id>",
                lambda: owner.handle_remove_table(table_id),
                True,
            )
        known_paths = {
            "/healthz",
            "/metrics",
            "/tables",
            "/query",
            "/snapshot",
            "/subscriptions",
        }
        if (
            path in known_paths
            or path.startswith("/tables/")
            or path.startswith("/subscriptions/")
        ):
            raise ProtocolError(
                f"method {method} not allowed on {path}", status=405
            )
        raise ProtocolError(f"unknown path {path}", status=404)

    def _dispatch(self, method: str) -> None:
        owner = self.owner
        # Unrouted requests share one metrics label: arbitrary client paths
        # must not grow the per-endpoint registry without bound.
        endpoint = f"{method} <unrouted>"
        start = time.perf_counter()
        # Exposed so the /query route can hand the request's entry time to
        # the tracer (the `admission` span measures routing + admission).
        self._dispatch_start = start
        status, extra_headers = 500, ()
        owner._enter_request()
        try:
            try:
                endpoint, thunk, needs_admission = self._route(method)
                if not needs_admission:
                    status, body = thunk()
                elif owner.draining:
                    # The request body was never read: the connection is
                    # not reusable, close it after answering.
                    status = 503
                    body = {"error": "server is draining; not admitting"}
                    self.close_connection = True
                elif not owner._admission.acquire(blocking=False):
                    status, body = 429, {
                        "error": (
                            "server saturated: "
                            f"{owner.config.max_inflight} requests already "
                            "in flight; retry shortly"
                        ),
                        "max_inflight": owner.config.max_inflight,
                    }
                    self.close_connection = True
                    retry_after = str(math.ceil(owner.config.retry_after_seconds))
                    extra_headers = (("Retry-After", retry_after),)
                else:
                    try:
                        status, body = thunk()
                    finally:
                        owner._admission.release()
            except ProtocolError as exc:
                status, body = exc.status, {"error": str(exc)}
            if isinstance(body, str):  # the Prometheus text exposition
                content_type, data = PROMETHEUS_CONTENT_TYPE, body.encode("utf-8")
            else:
                content_type, data = JSON_CONTENT_TYPE, json.dumps(body).encode("utf-8")
            self._send(status, content_type, data, extra_headers)
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away; nothing to send
            self.close_connection = True
        except Exception as exc:  # a genuine server-side defect
            status = 500
            try:
                error = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
                self._send(status, JSON_CONTENT_TYPE, error.encode("utf-8"))
            except OSError:
                self.close_connection = True
        finally:
            owner.metrics.observe(
                endpoint, status, time.perf_counter() - start
            )
            owner._exit_request()

    # ------------------------------------------------------------------ #
    # HTTP verbs
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")
