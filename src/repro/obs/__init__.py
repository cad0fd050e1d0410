"""``repro.obs`` — tracing, metrics and structured logging for the stack.

Three stdlib-only primitives, shared by every layer of the system:

* **metrics** (:mod:`repro.obs.metrics`) — a thread-safe registry of
  counters, gauges and bounded-reservoir histograms with two export
  surfaces: a JSON-friendly :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
  and a Prometheus text exposition
  (:meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`, served by
  the HTTP tier as ``GET /metrics?format=prometheus``);
* **tracing** (:mod:`repro.obs.tracing`) — per-query span trees.  A trace
  is minted at the HTTP boundary (or by
  :meth:`repro.serving.SearchService.query` for in-process callers) and
  every instrumented stage — admission, chart render, result cache,
  candidate generation (interval tree / LSH), verification, worker
  scatter/gather, merge — attaches a named :class:`~repro.obs.tracing.Span`
  (worker processes record none: a pooled query's verification is its
  ``scatter_gather`` span).  With no active trace, :func:`~repro.obs.tracing.span` is a shared no-op — the
  instrumented hot paths cost a single context-variable read;
* **structured logging** (:mod:`repro.obs.log`) — one-line JSON (or text)
  event records on stderr, gated by ``REPRO_LOG=off|info|debug`` and shaped
  by ``REPRO_LOG_FORMAT=json|text``.  Serving, persistence, sharded builds
  and the trainer all log through it; silent failure paths are gone.

Profiling hooks (:mod:`repro.obs.profiling`) build on the above: every
trace root runs under :func:`~repro.obs.profiling.trace_root`, which keeps
the finished tree and feeds the slow-query log (``REPRO_SLOW_QUERY_MS``:
the full span tree of any offending query), and an opt-in per-request
cProfile capture is exposed via the ``POST /query`` ``debug`` flag.

Example
-------
>>> from repro.obs import MetricsRegistry, start_trace, span, get_logger
>>> registry = MetricsRegistry()
>>> registry.counter("demo_total", "how many demos ran").inc()
>>> with start_trace("demo") as root:
...     with span("stage_one"):
...         pass
>>> root.to_dict()["children"][0]["name"]
'stage_one'
>>> get_logger("demo").info("done", stages=1)   # no-op unless REPRO_LOG=info
"""

from .log import LogConfig, ObsLogger, configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from .profiling import (
    maybe_log_slow_query,
    profile_block,
    slow_query_threshold_ms,
    trace_root,
)
from .tracing import (
    Span,
    current_span,
    mint_query_id,
    span,
    stage_names,
    start_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogConfig",
    "MetricsRegistry",
    "ObsLogger",
    "Span",
    "configure_logging",
    "current_span",
    "get_logger",
    "maybe_log_slow_query",
    "mint_query_id",
    "parse_prometheus_text",
    "profile_block",
    "slow_query_threshold_ms",
    "span",
    "stage_names",
    "start_trace",
    "trace_root",
]
