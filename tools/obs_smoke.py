#!/usr/bin/env python
"""CI smoke for the observability surface: scrape, validate, read the logs.

Boots a demo server in-process (ephemeral port, tracing on, structured
logging captured) and fails loudly when any of the exported surfaces is
malformed:

1. ``GET /metrics?format=prometheus`` must parse under the strict
   :func:`repro.obs.parse_prometheus_text` validator and contain the core
   series a dashboard would be built on;
2. ``GET /metrics`` (JSON) must agree with the Prometheus exposition on the
   request counts, and on the query count, which lives in one place — the
   service's registry;
3. a traced query must produce a span tree covering the named pipeline
   stages;
4. under ``REPRO_LOG=info`` every emitted log line must be valid JSON with
   the required envelope fields (``ts``/``level``/``logger``/``event``),
   and the startup ``index_built`` / ``server_started`` events must appear.

Run from the repository root::

    PYTHONPATH=src python tools/obs_smoke.py
"""

from __future__ import annotations

import io
import json
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import configure_logging, parse_prometheus_text, stage_names
from repro.serving.http.demo import build_demo_service, demo_query_payloads
from repro.serving.http.server import ChartSearchServer, HTTPServingConfig

#: Prometheus series a scrape must always contain.
CORE_SERIES = (
    "http_requests_total",
    "http_request_latency_ms",
    "http_admission_rejected_total",
    "http_draining_rejected_total",
    "http_uptime_seconds",
    "http_inflight_requests",
    "service_tables",
    "service_queries_total",
    "service_worker_fallback_active",
    "repro_exact_pack_builds_total",
    "repro_exact_pack_rows_projected_total",
    "repro_exact_pack_bytes",
    "repro_score_rows_repaired_total",
    "repro_score_row_calls_reused_total",
    "repro_score_row_calls_rerun_total",
)

#: Stages a traced HTTP query must cover (the acceptance bar).
CORE_STAGES = {"admission", "render", "cache", "candidates", "verify", "merge"}

#: Required envelope fields of every structured log record.
LOG_ENVELOPE = ("ts", "level", "logger", "event")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def main() -> int:
    # Capture structured logs exactly as an operator's `REPRO_LOG=info`
    # would emit them, into a buffer this script can validate.
    log_stream = io.StringIO()
    configure_logging(level="info", format="json", stream=log_stream)

    print("booting demo server (tracing on, logs captured)...")
    service, records = build_demo_service(num_tables=12, seed=7, tracing=True)
    server = ChartSearchServer(service, HTTPServingConfig(port=0)).start()
    try:
        base = server.url

        # One traced query so the scrape has query-path series to show.
        payload = demo_query_payloads(records, limit=1)[0]
        body = json.dumps({"chart": payload, "k": 3}).encode("utf-8")
        request = urllib.request.Request(
            base + "/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            check(response.status == 200, f"query returned {response.status}")
            json.loads(response.read())

        tree = server.last_trace
        check(tree is not None, "traced query left no span tree")
        names = stage_names(tree)
        missing_stages = CORE_STAGES - names
        check(
            not missing_stages,
            f"span tree missing stages {sorted(missing_stages)} "
            f"(got {sorted(names)})",
        )
        print(f"  span tree ok ({len(names)} stages)")

        # Request metrics are observed after the response bytes are flushed,
        # so wait until the query the client just made is actually recorded
        # before comparing the two exposition formats.
        deadline = time.monotonic() + 10.0
        while True:
            with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
                metrics_json = json.loads(response.read())
            recorded = metrics_json["endpoints"].get("POST /query", {})
            if recorded.get("requests", 0) >= 1:
                break
            check(
                time.monotonic() < deadline,
                "traced query was never recorded in /metrics",
            )
            time.sleep(0.01)

        # --- Prometheus exposition under the strict validator ------------- #
        with urllib.request.urlopen(
            base + "/metrics?format=prometheus", timeout=30
        ) as response:
            check(response.status == 200, f"scrape returned {response.status}")
            content_type = response.headers.get("Content-Type", "")
            check(
                content_type.startswith("text/plain; version=0.0.4"),
                f"unexpected scrape content type {content_type!r}",
            )
            text = response.read().decode("utf-8")
        try:
            parsed = parse_prometheus_text(text)
        except ValueError as exc:
            fail(f"malformed Prometheus exposition: {exc}")
        missing = [name for name in CORE_SERIES if name not in parsed]
        check(not missing, f"scrape missing core series {missing}")
        print(f"  prometheus exposition ok ({len(parsed)} metric families)")

        # --- JSON /metrics agrees with the exposition --------------------- #
        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            metrics_json = json.loads(response.read())
        check(
            "worker_fallback_kind" in metrics_json["service"],
            "JSON metrics missing service.worker_fallback_kind",
        )
        json_queries = metrics_json["endpoints"]["POST /query"]["requests"]
        prom_queries = sum(
            value
            for name, labels, value in parsed["http_requests_total"]["samples"]
            if labels.get("endpoint") == "POST /query"
        )
        check(
            prom_queries == json_queries,
            f"request counts disagree: prometheus {prom_queries} "
            f"vs json {json_queries}",
        )
        served = service.registry.counter("service_queries_total").value(strategy="hybrid")
        scraped = [
            value
            for _, labels, value in parsed["service_queries_total"]["samples"]
            if labels == {"strategy": "hybrid"}
        ]
        reported = metrics_json["service"]["per_strategy"]["hybrid"]["queries"]
        check(
            scraped == [served] and served == reported == 1,
            f"query counts disagree: registry {served}, scrape {scraped}, json {reported}",
        )
        print("  json/prometheus agreement ok")
    finally:
        server.close()

    # --- Structured log stream: every line valid JSON, key events present - #
    lines = [line for line in log_stream.getvalue().splitlines() if line]
    check(bool(lines), "no log lines emitted under REPRO_LOG=info")
    events = []
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError:
            fail(f"log line {lineno} is not valid JSON: {line[:120]!r}")
        missing_fields = [f for f in LOG_ENVELOPE if f not in record]
        check(
            not missing_fields,
            f"log line {lineno} missing fields {missing_fields}: {record}",
        )
        events.append(record["event"])
    for required in ("index_built", "server_started", "server_closed"):
        check(required in events, f"expected log event {required!r}; got {events}")
    print(f"  structured logs ok ({len(lines)} lines, events: {sorted(set(events))})")

    print("OBS SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
