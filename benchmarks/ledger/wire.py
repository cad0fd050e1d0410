"""Client side of the ledger's HTTP measurements: spawn the server, talk to it."""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from bootstrap import LEDGER_DIR
from harness import Answer, OpError

_JSON = {"Content-Type": "application/json"}


class ServerProcess:
    """A ``http_child.py`` process; ready once ``/healthz`` answered 200."""

    def __init__(self, tables: int, seed: int, timeout: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(LEDGER_DIR / "http_child.py"),
                "--tables",
                str(tables),
                "--seed",
                str(seed),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server process said {line!r} instead of its port")
            self.port = int(line.split()[1])
            deadline = time.perf_counter() + timeout
            while self.request("GET", "/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server process never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection for one closed-loop client."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> "tuple[int, Any]":
        """One control request on its own connection → ``(status, JSON body)``."""
        connection = self.connect()
        try:
            connection.request(method, path, body=body, headers=_JSON if body else {})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found for the server process")

    def cache_counters(self) -> Dict[str, int]:
        """Result-cache hits and misses of the hybrid strategy so far."""
        stats = self.request("GET", "/metrics")[1]["service"]["per_strategy"]
        hybrid = stats.get("hybrid", {})
        return {
            "hits": int(hybrid.get("cache_hits", 0)),
            "misses": int(hybrid.get("queries", 0)),
        }

    def close(self) -> None:
        """Close stdin (the child's stop signal) and wait for it to exit."""
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def post_query(connection: http.client.HTTPConnection, body: bytes) -> Answer:
    """``POST /query`` on a keep-alive connection → the served answer."""
    connection.request("POST", "/query", body=body, headers=_JSON)
    response = connection.getresponse()
    data = response.read()
    if response.status != 200:
        raise OpError(f"HTTP {response.status}: {data[:200]!r}", response.status)
    reply = json.loads(data)
    ranking = [(table_id, score) for table_id, score in reply["ranking"]]
    return Answer(ranking, reply["candidates"])
