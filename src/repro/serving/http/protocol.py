"""JSON wire formats of the HTTP serving front-end.

Everything a client sends or receives is plain JSON; the conversions in
both directions live here so the socket handler (:mod:`.server`) contains
no parsing logic and the formats can be validated in isolation.

* a **chart payload** describes the underlying data of a query chart —
  one series per line, each with a ``y`` array and an optional shared-``x``
  array — and is rendered server-side into the exact
  :class:`~repro.charts.rasterizer.LineChart` the in-process path would
  build, so HTTP rankings are byte-identical to
  :meth:`repro.serving.SearchService.query` on the same data
  (``tests/test_http_serving.py`` pins this);
* a **table payload** describes a :class:`~repro.data.table.Table` to add
  to the live index (``table_id`` plus named numeric columns);
* :class:`ProtocolError` carries the HTTP status a malformed payload maps
  to, so every validation failure becomes a structured 4xx response
  instead of a 500.

Chart geometry is deliberately **not** client-controllable: the serving
model pins its :class:`~repro.charts.spec.ChartSpec` at construction and
the encoders derive segment sizes from it, so a client-supplied geometry
could never be scored correctly.  A payload carrying a ``spec`` key is
rejected with a 400 that says exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...charts.rasterizer import LineChart, render_line_chart
from ...charts.spec import ChartSpec
from ...data.column import Column
from ...data.table import DataSeries, Table, UnderlyingData
from ...index.hybrid import INDEXING_STRATEGIES, QueryResult


class ProtocolError(ValueError):
    """A request payload the server refuses, with the HTTP status to use."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


def _require(condition: bool, message: str, status: int = 400) -> None:
    if not condition:
        raise ProtocolError(message, status=status)


def _as_float_array(values: object, what: str) -> np.ndarray:
    _require(
        isinstance(values, (list, tuple)),
        f"{what} must be a JSON array of numbers",
    )
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError(f"{what} must contain only numbers") from None
    except OverflowError:
        raise ProtocolError(f"{what} holds an integer beyond float64") from None
    _require(array.ndim == 1, f"{what} must be a flat (1-D) array")
    _require(array.size > 0, f"{what} must not be empty")
    # The conversion above also takes numeric strings, booleans and null;
    # a JSON number arrives as exactly ``int`` or ``float``.
    _require(
        set(map(type, values)) <= {int, float},
        f"{what} must contain only numbers",
    )
    _require(
        bool(np.all(np.isfinite(array))),
        f"{what} must contain only finite numbers (no NaN/Infinity)",
    )
    return array


def parse_chart_payload(payload: object, spec: ChartSpec) -> LineChart:
    """Render the query chart described by ``payload`` under ``spec``.

    Expected shape::

        {"series": [{"y": [..], "x": [..]?, "name": str?}, ...]}

    ``x`` defaults to the implicit index ``1..N`` (the same default as
    :meth:`repro.data.table.Table.to_underlying_data`); all series of one
    chart must agree on their length with their own ``x``.  The rendered
    chart is deterministic, so two requests with equal payloads hit the
    service's content-addressed result cache.
    """
    _require(isinstance(payload, dict), "chart must be a JSON object")
    _require(
        "spec" not in payload,
        "chart geometry is fixed by the serving model and cannot be set "
        "per request; drop the 'spec' key",
    )
    unknown = set(payload) - {"series"}
    _require(not unknown, f"unknown chart keys: {sorted(unknown)}")
    series_payload = payload.get("series")
    _require(
        isinstance(series_payload, (list, tuple)) and len(series_payload) > 0,
        "chart.series must be a non-empty array",
    )
    series: List[DataSeries] = []
    for index, entry in enumerate(series_payload):
        what = f"chart.series[{index}]"
        _require(isinstance(entry, dict), f"{what} must be a JSON object")
        unknown = set(entry) - {"x", "y", "name"}
        _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
        y = _as_float_array(entry.get("y"), f"{what}.y")
        if entry.get("x") is not None:
            x = _as_float_array(entry["x"], f"{what}.x")
        else:
            x = np.arange(1, y.shape[0] + 1, dtype=np.float64)
        name = entry.get("name", f"series_{index}")
        _require(isinstance(name, str), f"{what}.name must be a string")
        try:
            series.append(DataSeries(x=x, y=y, name=name))
        except ValueError as exc:
            raise ProtocolError(f"{what}: {exc}") from exc
    try:
        return render_line_chart(UnderlyingData(series=series), spec=spec)
    except ValueError as exc:  # e.g. a y range no float64 axis can span
        raise ProtocolError(f"chart cannot be rendered: {exc}") from exc


#: Recognised flags of the optional ``POST /query`` ``debug`` object.
QUERY_DEBUG_KEYS = ("trace", "profile")


def parse_query_debug(payload: object) -> Dict[str, bool]:
    """Validate the optional ``debug`` object of a ``POST /query`` body.

    ``{"debug": {"trace": true}}`` asks for the query's span tree in the
    response and ``{"debug": {"profile": true}}`` for a per-request cProfile
    capture (see :mod:`repro.obs.profiling`); both default to off.  A
    request without a ``debug`` key returns all-false — and gets the exact
    byte-identical response body an older client would, since the ``debug``
    response field is only emitted when asked for.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    debug = payload.get("debug")
    if debug is None:
        return {key: False for key in QUERY_DEBUG_KEYS}
    _require(isinstance(debug, dict), "debug must be a JSON object")
    unknown = set(debug) - set(QUERY_DEBUG_KEYS)
    _require(not unknown, f"unknown debug keys: {sorted(unknown)}")
    flags = {}
    for key in QUERY_DEBUG_KEYS:
        value = debug.get(key, False)
        _require(isinstance(value, bool), f"debug.{key} must be a boolean")
        flags[key] = value
    return flags


def parse_query_payload(
    payload: object, spec: ChartSpec
) -> Tuple[LineChart, int, str]:
    """Validate a ``POST /query`` body → ``(chart, k, strategy)``.

    ``k`` is required and must be a positive integer; ``strategy`` defaults
    to ``"hybrid"`` and must be one of
    :data:`repro.index.hybrid.INDEXING_STRATEGIES`.  The optional ``debug``
    object is validated separately by :func:`parse_query_debug`.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {"chart", "k", "strategy", "debug"}
    _require(not unknown, f"unknown request keys: {sorted(unknown)}")
    _require("chart" in payload, "missing required key 'chart'")
    _require("k" in payload, "missing required key 'k'")
    k = payload["k"]
    _require(
        isinstance(k, int) and not isinstance(k, bool),
        "k must be an integer",
    )
    _require(k >= 1, f"k must be >= 1, got {k}")
    strategy = payload.get("strategy", "hybrid")
    _require(
        strategy in INDEXING_STRATEGIES,
        f"unknown strategy {strategy!r}; expected one of "
        f"{list(INDEXING_STRATEGIES)}",
    )
    chart = parse_chart_payload(payload["chart"], spec)
    return chart, k, strategy


def parse_table_payload(payload: object) -> Table:
    """Build one :class:`~repro.data.table.Table` from its JSON description.

    Expected shape::

        {"table_id": str, "columns": [{"name": str, "values": [..],
                                       "role": "x"|"y"?}, ...]}
    """
    _require(isinstance(payload, dict), "each table must be a JSON object")
    unknown = set(payload) - {"table_id", "columns"}
    _require(not unknown, f"unknown table keys: {sorted(unknown)}")
    table_id = payload.get("table_id")
    _require(
        isinstance(table_id, str) and bool(table_id),
        "table_id must be a non-empty string",
    )
    columns_payload = payload.get("columns")
    _require(
        isinstance(columns_payload, (list, tuple)) and len(columns_payload) > 0,
        f"table {table_id!r}: columns must be a non-empty array",
    )
    columns: List[Column] = []
    for index, entry in enumerate(columns_payload):
        what = f"table {table_id!r} columns[{index}]"
        _require(isinstance(entry, dict), f"{what} must be a JSON object")
        unknown = set(entry) - {"name", "values", "role"}
        _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
        name = entry.get("name")
        _require(isinstance(name, str) and bool(name), f"{what}.name must be a non-empty string")
        role = entry.get("role")
        _require(
            role is None or role in ("x", "y"),
            f"{what}.role must be 'x', 'y' or omitted",
        )
        values = _as_float_array(entry.get("values"), f"{what}.values")
        try:
            columns.append(Column(name=name, values=values, role=role))
        except ValueError as exc:
            raise ProtocolError(f"{what}: {exc}") from exc
    try:
        return Table(table_id, columns)
    except ValueError as exc:
        raise ProtocolError(f"table {table_id!r}: {exc}") from exc


def parse_tables_payload(payload: object) -> List[Table]:
    """Validate a ``POST /tables`` body → the tables to add."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {"tables"}
    _require(not unknown, f"unknown request keys: {sorted(unknown)}")
    tables_payload = payload.get("tables")
    _require(
        isinstance(tables_payload, (list, tuple)) and len(tables_payload) > 0,
        "tables must be a non-empty array",
    )
    tables = [parse_table_payload(entry) for entry in tables_payload]
    ids = [t.table_id for t in tables]
    _require(
        len(set(ids)) == len(ids),
        f"duplicate table_id in one request: {sorted(ids)}",
    )
    return tables


def parse_rows_payload(payload: object) -> Tuple[Dict[str, np.ndarray], Dict[str, str]]:
    """Validate a ``POST /tables/{id}/rows`` body → ``(columns, roles)``.

    Expected shape::

        {"columns": [{"name": str, "values": [..], "role": "x"|"y"?}, ...]}

    The same column idiom as ``POST /tables`` minus the ``table_id`` (it
    rides in the path).  ``role`` is only honoured on the append that
    creates the stream; later appends must carry the stream's columns.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {"columns"}
    _require(not unknown, f"unknown request keys: {sorted(unknown)}")
    columns_payload = payload.get("columns")
    _require(
        isinstance(columns_payload, (list, tuple)) and len(columns_payload) > 0,
        "columns must be a non-empty array",
    )
    columns: Dict[str, np.ndarray] = {}
    roles: Dict[str, str] = {}
    for index, entry in enumerate(columns_payload):
        what = f"columns[{index}]"
        _require(isinstance(entry, dict), f"{what} must be a JSON object")
        unknown = set(entry) - {"name", "values", "role"}
        _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
        name = entry.get("name")
        _require(
            isinstance(name, str) and bool(name),
            f"{what}.name must be a non-empty string",
        )
        _require(name not in columns, f"duplicate column name {name!r}")
        role = entry.get("role")
        _require(
            role is None or role in ("x", "y"),
            f"{what}.role must be 'x', 'y' or omitted",
        )
        columns[name] = _as_float_array(entry.get("values"), f"{what}.values")
        if role is not None:
            roles[name] = role
    return columns, roles


def parse_subscribe_payload(
    payload: object, spec: ChartSpec
) -> Tuple[LineChart, int, float]:
    """Validate a ``POST /subscriptions`` body → ``(chart, k, threshold)``.

    ``chart`` uses the standard chart payload; ``k`` (events per ingest
    batch, default 1) must be a positive integer and ``threshold`` (minimum
    exact score that fires an event, default 0.0) a finite number.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {"chart", "k", "threshold"}
    _require(not unknown, f"unknown request keys: {sorted(unknown)}")
    _require("chart" in payload, "missing required key 'chart'")
    k = payload.get("k", 1)
    _require(
        isinstance(k, int) and not isinstance(k, bool),
        "k must be an integer",
    )
    _require(k >= 1, f"k must be >= 1, got {k}")
    threshold = payload.get("threshold", 0.0)
    _require(
        isinstance(threshold, (int, float)) and not isinstance(threshold, bool),
        "threshold must be a number",
    )
    threshold = float(threshold)
    _require(np.isfinite(threshold), "threshold must be finite")
    chart = parse_chart_payload(payload["chart"], spec)
    return chart, int(k), threshold


def parse_snapshot_payload(
    payload: object, default_path: Optional[str]
) -> Tuple[str, bool]:
    """Validate a ``POST /snapshot`` body → ``(path, append)``.

    The body may be empty when the server was configured with a default
    snapshot path; otherwise ``path`` is required.
    """
    payload = payload if payload is not None else {}
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {"path", "append"}
    _require(not unknown, f"unknown request keys: {sorted(unknown)}")
    path = payload.get("path", default_path)
    _require(
        isinstance(path, str) and bool(path),
        "no snapshot path: pass 'path' in the body or configure "
        "HTTPServingConfig.snapshot_path",
    )
    append = payload.get("append", False)
    _require(isinstance(append, bool), "append must be a boolean")
    return path, append


def query_result_to_dict(result: QueryResult, k: int, strategy: str) -> Dict:
    """Serialise a :class:`~repro.index.hybrid.QueryResult` for the wire.

    Scores are emitted as native floats: Python's JSON encoder round-trips
    them through ``repr``, so the client reads back the bit-exact score the
    in-process path computed.
    """
    return {
        "k": int(k),
        "strategy": strategy,
        "ranking": [
            [table_id, float(score)] for table_id, score in result.ranking
        ],
        "candidates": int(result.candidates),
        "total_tables": int(result.total_tables),
        "seconds": float(result.seconds),
    }


def chart_payload_from_series(
    series: Sequence[DataSeries],
) -> Dict:
    """The inverse of :func:`parse_chart_payload` (clients, tests, load-gen).

    Given the underlying data series of a chart, produce the JSON body a
    client would POST to ``/query`` to ask about that chart.
    """
    return {
        "series": [
            {
                "x": [float(v) for v in entry.x],
                "y": [float(v) for v in entry.y],
                "name": entry.name,
            }
            for entry in series
        ]
    }


def table_payload_from_table(table: Table) -> Dict:
    """The inverse of :func:`parse_table_payload` (clients, tests, load-gen)."""
    return {
        "table_id": table.table_id,
        "columns": [
            {
                "name": column.name,
                "values": [float(v) for v in column.values],
                **({"role": column.role} if column.role else {}),
            }
            for column in table.columns
        ],
    }
