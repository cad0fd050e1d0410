"""Thread-safe metrics: counters, gauges, bounded-reservoir histograms.

One :class:`MetricsRegistry` holds every metric of a component (the HTTP
server owns one per instance, a ``SearchService`` another, shared with its
scorer and subscription engine; there is no process-wide default, which
nothing would render).  A count is kept in one registry only, incremented
where it happens: nothing copies a total from one store into another.  All mutation goes
through a single lock per registry, so concurrent ``observe``/``inc`` calls from
``ThreadingHTTPServer`` handler threads are safe — ``tests/test_obs.py``
hammers one registry from many threads and asserts exact totals.

Two export surfaces:

* :meth:`MetricsRegistry.snapshot` — a plain-dict view (JSON ``/metrics``);
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``GET /metrics?format=prometheus``).  Counters and
  gauges render as their native types; histograms render as summaries with
  ``quantile`` labels plus ``_count``/``_sum``/``_max`` series, computed
  from a bounded reservoir so a long-lived server's metrics memory never
  grows with traffic.

:func:`parse_prometheus_text` is the matching validator: a strict
mini-parser of the exposition format used by the CI smoke job
(``tools/obs_smoke.py``) and the unit tests, so a malformed rendering can
never land silently.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default reservoir size per histogram series: enough resolution for a p99
#: over a sustained load-generator phase, bounded so metrics memory is O(1)
#: in traffic.
DEFAULT_RESERVOIR = 4096

#: A label set, normalised to a sorted tuple of (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    # repr round-trips floats exactly; integers render without a trailing .0
    # for readability (both are valid exposition values).
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared bookkeeping: a name, help text and a per-label-set series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = lock

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled.

    >>> c = MetricsRegistry().counter("requests_total", "requests served")
    >>> c.inc(endpoint="GET /healthz")
    >>> c.value(endpoint="GET /healthz")
    1.0
    """

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._series: "OrderedDict[LabelKey, float]" = OrderedDict()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def _snapshot(self) -> Dict:
        with self._lock:
            return {
                "type": self.kind,
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in self._series.items()
                ],
            }

    def _render(self) -> List[str]:
        with self._lock:
            lines = self._header()
            for key, value in self._series.items():
                lines.append(
                    f"{self.name}{_format_labels(key)} {_format_value(value)}"
                )
            return lines


class Gauge(_Metric):
    """A value that can go up and down (or be set at scrape time)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._series: "OrderedDict[LabelKey, float]" = OrderedDict()

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    _snapshot = Counter._snapshot
    _render = Counter._render


class _Reservoir:
    """Count/sum/max plus a bounded ring of recent observations."""

    __slots__ = ("count", "total", "max", "recent")

    def __init__(self, size: int) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.recent: "deque[float]" = deque(maxlen=size)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.max = max(self.max, value)
        self.recent.append(value)

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        if not self.recent:
            return [0.0 for _ in qs]
        arr = np.asarray(self.recent, dtype=np.float64)
        return [float(v) for v in np.percentile(arr, [q * 100.0 for q in qs])]


class Histogram(_Metric):
    """Latency-style observations with bounded-reservoir percentiles.

    Exposed to Prometheus as a *summary*: ``name{quantile="0.5"}`` etc.
    computed over the last ``reservoir`` observations per label set, plus
    exact ``name_count`` / ``name_sum`` / ``name_max`` series.
    """

    kind = "summary"
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        super().__init__(name, help, lock)
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self._reservoir_size = int(reservoir)
        self._series: "OrderedDict[LabelKey, _Reservoir]" = OrderedDict()

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Reservoir(self._reservoir_size)
            series.observe(float(value))

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series else 0.0

    def _snapshot(self) -> Dict:
        with self._lock:
            out = []
            for key, series in self._series.items():
                p50, p95, p99 = series.percentiles(self.QUANTILES)
                out.append(
                    {
                        "labels": dict(key),
                        "count": series.count,
                        "sum": series.total,
                        "mean": series.total / series.count if series.count else 0.0,
                        "max": series.max,
                        "p50": p50,
                        "p95": p95,
                        "p99": p99,
                    }
                )
            return {"type": self.kind, "series": out}

    def _render(self) -> List[str]:
        with self._lock:
            lines = self._header()
            for key, series in self._series.items():
                values = series.percentiles(self.QUANTILES)
                for q, value in zip(self.QUANTILES, values):
                    labels = _format_labels(key, [("quantile", str(q))])
                    lines.append(f"{self.name}{labels} {_format_value(value)}")
                labels = _format_labels(key)
                lines.append(
                    f"{self.name}_count{labels} {_format_value(series.count)}"
                )
                lines.append(
                    f"{self.name}_sum{labels} {_format_value(series.total)}"
                )
                lines.append(
                    f"{self.name}_max{labels} {_format_value(series.max)}"
                )
            return lines


class MetricsRegistry:
    """A named collection of metrics sharing one lock.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object, asking for an existing name with
    a different type raises — two subsystems can therefore share a registry
    without coordinating beyond the metric names.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, help, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", reservoir: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, reservoir=reservoir)

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-friendly view of every metric and series."""
        with self._lock:
            return {name: metric._snapshot() for name, metric in self._metrics.items()}

    def render_prometheus(self) -> str:
        """The full registry in the Prometheus text exposition format."""
        with self._lock:
            lines: List[str] = []
            for metric in self._metrics.values():
                lines.extend(metric._render())
        return "\n".join(lines) + "\n" if lines else ""


# --------------------------------------------------------------------------- #
# Exposition validator (shared by CI smoke and unit tests)
# --------------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*$'
)


def _base_name(name: str) -> str:
    for suffix in ("_count", "_sum", "_max", "_bucket", "_total"):
        if name.endswith(suffix) and name[: -len(suffix)]:
            return name[: -len(suffix)]
    return name


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse (and strictly validate) a Prometheus text exposition.

    Returns ``{metric_name: {"type": str, "help": str, "samples":
    [(full_name, labels_dict, value), ...]}}`` keyed by the *declared*
    metric name.  Raises :class:`ValueError` on any malformed line, a
    sample whose metric has no ``# TYPE`` declaration, an unparsable value
    or a broken label pair — the strictness is the point: this is the
    validator the CI smoke job fails on.
    """
    metrics: Dict[str, Dict] = {}
    declared_types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP: {raw!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid metric name {name!r}")
            metrics.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            _, _, name, kind = parts
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid metric name {name!r}")
            if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            if name in declared_types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            declared_types[name] = kind
            metrics.setdefault(name, {"type": None, "help": "", "samples": []})[
                "type"
            ] = kind
            continue
        if line.startswith("#"):  # comment
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        full_name = match.group("name")
        base = _base_name(full_name)
        owner = base if base in declared_types else full_name
        if owner not in declared_types:
            raise ValueError(
                f"line {lineno}: sample {full_name!r} has no # TYPE declaration"
            )
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            body = raw_labels[1:-1].strip()
            if body:
                for pair in body.split(","):
                    pair_match = _LABEL_PAIR_RE.match(pair)
                    if not pair_match:
                        raise ValueError(
                            f"line {lineno}: malformed label pair {pair!r}"
                        )
                    labels[pair_match.group("name")] = pair_match.group("value")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value not in ("+Inf", "-Inf", "NaN"):
                raise ValueError(
                    f"line {lineno}: unparsable sample value {raw_value!r}"
                ) from None
            value = float(raw_value.replace("Inf", "inf"))
        metrics[owner]["samples"].append((full_name, labels, value))
    return metrics
