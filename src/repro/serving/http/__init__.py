"""``repro.serving.http`` — the serving stack's network boundary.

A dependency-free (stdlib-only) threaded HTTP front-end over
:class:`~repro.serving.service.SearchService`: JSON chart specs in, ranked
tables out, with admission control (429 + ``Retry-After`` under overload),
graceful drain, and a ``/metrics`` endpoint exporting per-endpoint
latency/status counters alongside the service's per-strategy statistics.

* :class:`ChartSearchServer` / :class:`HTTPServingConfig` — the server
  (:mod:`repro.serving.http.server`);
* the wire formats and :class:`ProtocolError` —
  :mod:`repro.serving.http.protocol`;
* ``python -m repro.serving.http`` — boot a demo server over a generated
  corpus (:mod:`repro.serving.http.demo`);
* ``benchmarks/load_gen.py`` — the matching concurrent-user load
  generator (ramp → sustained → deliberate overload), which records
  ``BENCH_http.json``.

Operator guidance (endpoint table, overload tuning, drain semantics) lives
in ``docs/SERVING_OPS.md`` ("HTTP serving").
"""

from .protocol import (
    ProtocolError,
    chart_payload_from_series,
    parse_chart_payload,
    parse_query_debug,
    parse_query_payload,
    parse_snapshot_payload,
    parse_table_payload,
    parse_tables_payload,
    query_result_to_dict,
    table_payload_from_table,
)
from .server import (
    ChartSearchServer,
    EndpointMetricsRegistry,
    HTTPServingConfig,
)

__all__ = [
    "ChartSearchServer",
    "EndpointMetricsRegistry",
    "HTTPServingConfig",
    "ProtocolError",
    "chart_payload_from_series",
    "parse_chart_payload",
    "parse_query_debug",
    "parse_query_payload",
    "parse_snapshot_payload",
    "parse_table_payload",
    "parse_tables_payload",
    "query_result_to_dict",
    "table_payload_from_table",
]
