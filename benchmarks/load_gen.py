"""Concurrent-user load generator for the HTTP serving front-end.

Drives a :class:`~repro.serving.http.server.ChartSearchServer` the way an
operator's dashboard would be graded: a **ramp** (users joining one at a
time), a **sustained** measured phase (steady concurrency, mixed repeated /
fresh queries), and a **deliberate overload** burst sized past the server's
admission bound.  The report is printed, and written as JSON to the file
``--output`` names (nothing is written without it):

* sustained-phase p50/p95/p99 latency, throughput and error rate;
* the overload phase's status breakdown — the acceptance property is that
  saturation degrades to fast **429** rejections with ``Retry-After``,
  never to hangs, timeouts or 5xx;
* a parity check that one ranking fetched over HTTP is byte-identical to
  the in-process :meth:`~repro.serving.SearchService.query` answer
  (self-hosted runs only, where both sides are reachable).

Stdlib only (``http.client`` + threads), like the server itself.

Usage::

    # Self-contained: boots a demo server in-process, loads it, writes JSON
    PYTHONPATH=src python benchmarks/load_gen.py --self-host --output http_load.json

    # CI smoke: seconds, not minutes; nonzero exit on any 5xx/timeout
    PYTHONPATH=src python benchmarks/load_gen.py --self-host --smoke --fail-on-5xx

    # Against an already-running server (see `python -m repro.serving.http`)
    PYTHONPATH=src python benchmarks/load_gen.py --url http://127.0.0.1:8080

As with every multi-process/multi-thread number in this repository:
``os.cpu_count()`` and a ``single_cpu`` flag are recorded, and a caveat is
attached on 1-CPU hosts — there the latencies measure queueing behind one
core, not parallel serving capacity.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

from provenance import stamp_results

SINGLE_CPU_CAVEAT = (
    "recorded on a 1-CPU host: concurrent-user latencies measure queueing "
    "behind one core, not parallel serving capacity"
)

#: Per-request socket guard: anything slower than this is recorded as a
#: timeout, and timeouts fail the run's acceptance property (no hangs).
REQUEST_TIMEOUT_SECONDS = 30.0


# --------------------------------------------------------------------------- #
# Result accounting
# --------------------------------------------------------------------------- #
@dataclass
class PhaseRecorder:
    """Thread-safe (status, latency) accumulator for one load phase."""

    statuses: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    timeouts: int = 0
    transport_errors: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def observe(self, status: int, seconds: float) -> None:
        with self._lock:
            self.statuses.append(status)
            self.latencies.append(seconds)

    def observe_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def observe_transport_error(self) -> None:
        with self._lock:
            self.transport_errors += 1

    def summary(self) -> Dict:
        counts: Dict[str, int] = {}
        for status in self.statuses:
            key = str(status)
            counts[key] = counts.get(key, 0) + 1
        total = len(self.statuses) + self.timeouts + self.transport_errors
        server_5xx = sum(n for s, n in counts.items() if s.startswith("5"))
        failures = server_5xx + self.timeouts + self.transport_errors
        out = {
            "requests": total,
            "status_counts": dict(sorted(counts.items())),
            "rejected_429": counts.get("429", 0),
            "server_5xx": server_5xx,
            "timeouts": self.timeouts,
            "transport_errors": self.transport_errors,
            "error_rate": (failures / total) if total else 0.0,
        }
        if self.latencies:
            lat = np.asarray(self.latencies, dtype=np.float64) * 1e3
            p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
            out["latency_ms"] = {
                "mean": float(lat.mean()),
                "p50": float(p50),
                "p95": float(p95),
                "p99": float(p99),
                "max": float(lat.max()),
            }
        return out


# --------------------------------------------------------------------------- #
# A keep-alive client worker
# --------------------------------------------------------------------------- #
class Client:
    """One simulated user: a persistent connection issuing POST /query."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=REQUEST_TIMEOUT_SECONDS
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def query(
        self, payload: Dict, recorder: PhaseRecorder
    ) -> Optional[Tuple[int, Dict]]:
        body = json.dumps(payload).encode("utf-8")
        start = time.perf_counter()
        try:
            conn = self._connection()
            conn.request(
                "POST",
                "/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            if response.getheader("Connection") == "close":
                self.close()  # the server refused keep-alive (429/503/413)
        except TimeoutError:
            self.close()
            recorder.observe_timeout()
            return None
        except OSError:
            self.close()
            recorder.observe_transport_error()
            return None
        recorder.observe(status, time.perf_counter() - start)
        return status, (json.loads(raw) if raw else {})


# --------------------------------------------------------------------------- #
# Query payload mix
# --------------------------------------------------------------------------- #
def _fresh_payload(tag: int, points: int = 64) -> Dict:
    """A deterministic chart no other request has asked about.

    Distinct payloads are cache misses by construction (the service cache is
    keyed by chart content), so the overload phase keeps the service busy
    instead of being absorbed by the LRU cache.
    """
    x = np.arange(1, points + 1, dtype=np.float64)
    y = np.sin(x * (0.05 + 0.013 * (tag % 97))) * (1.0 + (tag % 11)) + 0.01 * tag
    return {
        "series": [{"x": x.tolist(), "y": y.tolist(), "name": f"load_{tag}"}]
    }


def _sustained_payload(corpus_payloads: List[Dict], user: int, i: int) -> Dict:
    """The sustained mix: mostly repeated corpus charts (warm cache, the
    realistic steady state), every fourth request a fresh one (cold path)."""
    if i % 4 == 3:
        return _fresh_payload(user * 100_000 + i)
    return corpus_payloads[(user + i) % len(corpus_payloads)]


# --------------------------------------------------------------------------- #
# Load phases
# --------------------------------------------------------------------------- #
def run_ramp(
    host: str,
    port: int,
    corpus_payloads: List[Dict],
    users: int,
    spawn_interval: float,
    requests_per_user: int,
    k: int,
) -> PhaseRecorder:
    recorder = PhaseRecorder()

    def user_loop(user: int) -> None:
        client = Client(host, port)
        try:
            for i in range(requests_per_user):
                payload = _sustained_payload(corpus_payloads, user, i)
                client.query({"chart": payload, "k": k}, recorder)
        finally:
            client.close()

    threads = []
    for user in range(users):
        thread = threading.Thread(target=user_loop, args=(user,), daemon=True)
        thread.start()
        threads.append(thread)
        time.sleep(spawn_interval)
    for thread in threads:
        thread.join()
    return recorder


def run_sustained(
    host: str,
    port: int,
    corpus_payloads: List[Dict],
    users: int,
    duration: float,
    k: int,
) -> Tuple[PhaseRecorder, float]:
    recorder = PhaseRecorder()
    stop = time.perf_counter() + duration

    def user_loop(user: int) -> None:
        client = Client(host, port)
        i = 0
        try:
            while time.perf_counter() < stop:
                payload = _sustained_payload(corpus_payloads, user, i)
                result = client.query({"chart": payload, "k": k}, recorder)
                if result is not None and result[0] == 429:
                    time.sleep(0.02)  # honour the backpressure, then retry
                i += 1
        finally:
            client.close()

    start = time.perf_counter()
    threads = [
        threading.Thread(target=user_loop, args=(user,), daemon=True)
        for user in range(users)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return recorder, time.perf_counter() - start


def run_overload(
    host: str,
    port: int,
    burst_users: int,
    requests_per_user: int,
    k: int,
) -> PhaseRecorder:
    """Every request is a distinct uncached chart and nobody backs off:
    strictly more concurrency than ``max_inflight`` can admit.  The server
    must shed the excess as immediate 429s — the recorder's timeout and 5xx
    counters are the failure signal."""
    recorder = PhaseRecorder()
    barrier = threading.Barrier(burst_users)

    def user_loop(user: int) -> None:
        client = Client(host, port)
        try:
            barrier.wait(timeout=30.0)
            for i in range(requests_per_user):
                tag = 10_000_000 + user * 1000 + i
                client.query({"chart": _fresh_payload(tag), "k": k}, recorder)
        finally:
            client.close()

    threads = [
        threading.Thread(target=user_loop, args=(user,), daemon=True)
        for user in range(burst_users)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return recorder


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def _check_parity(server, service, corpus_payloads: List[Dict], k: int) -> Dict:
    """One ranking over the wire vs. the same query in-process, compared
    with ``==`` — the JSON float round-trip is exact by construction."""
    client = Client(server.host, server.port)
    try:
        result = client.query(
            {"chart": corpus_payloads[0], "k": k}, PhaseRecorder()
        )
    finally:
        client.close()
    if result is None or result[0] != 200:
        return {"checked": False, "reason": f"query failed: {result}"}
    http_ranking = result[1]["ranking"]
    from repro.serving.http.protocol import parse_chart_payload

    chart = parse_chart_payload(
        corpus_payloads[0], service.model.config.chart_spec
    )
    expected = service.query(chart, k)
    in_process = [[tid, float(score)] for tid, score in expected.ranking]
    return {
        "checked": True,
        "byte_identical": http_ranking == in_process,
        "k": k,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="load-test the repro HTTP serving front-end"
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="base URL of a running server")
    target.add_argument(
        "--self-host",
        action="store_true",
        help="boot a demo server in-process and load that",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long profile for CI")
    parser.add_argument("--users", type=int, default=None,
                        help="sustained-phase concurrent users")
    parser.add_argument("--duration", type=float, default=None,
                        help="sustained-phase seconds")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--tables", type=int, default=40,
                        help="self-hosted corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="self-hosted admission bound (kept small so the "
                        "overload phase actually saturates it)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here (default: print it)")
    parser.add_argument(
        "--fail-on-5xx",
        action="store_true",
        help="exit nonzero on any 5xx, timeout or transport error",
    )
    args = parser.parse_args(argv)

    # Sustained concurrency sits at the admission bound (a steady state at
    # capacity, not past it); only the overload burst exceeds it, which is
    # where the 429 behaviour is demonstrated.
    default_users = args.max_inflight if args.self_host else 8
    if args.smoke:
        users = args.users or min(4, default_users)
        duration = args.duration or 2.0
        ramp_requests, burst_users, burst_requests = 3, 4 * users, 10
    else:
        users = args.users or default_users
        duration = args.duration or 8.0
        ramp_requests, burst_users, burst_requests = 8, 4 * users, 25

    server = service = None
    if args.self_host:
        from repro.serving.http.demo import (
            build_demo_service,
            demo_query_payloads,
        )
        from repro.serving.http.server import (
            ChartSearchServer,
            HTTPServingConfig,
        )

        print(f"booting demo server over {args.tables} tables...")
        service, records = build_demo_service(
            num_tables=args.tables, seed=args.seed
        )
        server = ChartSearchServer(
            service,
            HTTPServingConfig(
                port=0, max_inflight=args.max_inflight, close_service=False
            ),
        ).start()
        host, port = server.host, server.port
        corpus_payloads = demo_query_payloads(records, limit=8)
        server_info = {
            "self_hosted": True,
            "num_tables": service.num_tables,
            "max_inflight": args.max_inflight,
        }
    else:
        parts = urlsplit(args.url)
        host, port = parts.hostname, parts.port or 80
        # Remote servers are assumed demo-shaped (same --tables/--seed):
        # rebuild the corpus client-side to derive realistic query charts.
        from repro.serving.http.demo import demo_query_payloads, demo_records

        corpus_payloads = demo_query_payloads(
            demo_records(args.tables, args.seed), limit=8
        )
        server_info = {"self_hosted": False, "url": args.url}

    try:
        print(f"ramp: {users} users joining one per 100ms...")
        ramp = run_ramp(
            host, port, corpus_payloads, users,
            spawn_interval=0.1, requests_per_user=ramp_requests, k=args.k,
        )
        print(f"sustained: {users} users for {duration:.0f}s...")
        sustained, measured = run_sustained(
            host, port, corpus_payloads, users, duration, k=args.k
        )
        print(
            f"overload: {burst_users} users x {burst_requests} uncached "
            "queries, no backoff..."
        )
        overload = run_overload(
            host, port, burst_users, burst_requests, k=args.k
        )
        parity = (
            _check_parity(server, service, corpus_payloads, args.k)
            if server is not None
            else {"checked": False, "reason": "remote server; no in-process reference"}
        )
    finally:
        if server is not None:
            server.close()

    cpus = os.cpu_count() or 1
    sustained_summary = sustained.summary()
    sustained_summary["duration_seconds"] = measured
    sustained_summary["users"] = users
    sustained_summary["throughput_rps"] = (
        sustained_summary["requests"] / measured if measured else 0.0
    )
    overload_summary = overload.summary()
    overload_summary["burst_users"] = burst_users

    report = {
        "benchmark": "http_serving_load",
        "scale": "smoke" if args.smoke else "default",
        "os_cpu_count": cpus,
        "single_cpu": cpus <= 1,
        "server": server_info,
        "ramp": {"users": users, "spawn_interval_seconds": 0.1, **ramp.summary()},
        "sustained": sustained_summary,
        "overload": overload_summary,
        "parity": parity,
    }
    if cpus <= 1:
        report["caveat"] = SINGLE_CPU_CAVEAT

    text = json.dumps(stamp_results(report), indent=1)
    if args.output is None:
        print(text)
    else:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}")
    lat = sustained_summary.get("latency_ms", {})
    print(
        f"sustained: {sustained_summary['requests']} requests, "
        f"{sustained_summary['throughput_rps']:.1f} rps, "
        f"p50 {lat.get('p50', float('nan')):.1f}ms / "
        f"p95 {lat.get('p95', float('nan')):.1f}ms / "
        f"p99 {lat.get('p99', float('nan')):.1f}ms, "
        f"error rate {sustained_summary['error_rate']:.4f}"
    )
    print(
        f"overload: {overload_summary['requests']} requests -> "
        f"{overload_summary['rejected_429']} x 429, "
        f"{overload_summary['server_5xx']} x 5xx, "
        f"{overload_summary['timeouts']} timeouts"
    )
    if parity.get("checked"):
        print(f"parity (HTTP vs in-process): byte_identical={parity['byte_identical']}")

    failures = 0
    for phase_name, phase in (("sustained", sustained_summary),
                              ("ramp", report["ramp"]),
                              ("overload", overload_summary)):
        bad = phase["server_5xx"] + phase["timeouts"] + phase["transport_errors"]
        if bad:
            print(f"FAIL: {phase_name} phase saw {bad} 5xx/timeout/transport errors")
            failures += bad
    if parity.get("checked") and not parity.get("byte_identical"):
        print("FAIL: HTTP ranking diverged from the in-process ranking")
        failures += 1
    if args.fail_on_5xx and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
