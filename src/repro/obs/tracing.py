"""Per-query span trees.

A **trace** is one tree of named :class:`Span` objects under a query id.
The id is minted where a query enters the system — the HTTP boundary
(:mod:`repro.serving.http.server`) or
:meth:`repro.serving.SearchService.query` for in-process callers — and the
instrumented stages attach children through :func:`span`, a context manager
that reads the ambient parent from a :class:`contextvars.ContextVar`:

>>> with start_trace("query") as root:
...     with span("candidates", strategy="hybrid") as sp:
...         sp.attributes["candidates"] = 12
...     with span("verify"):
...         with span("encode_chart"):
...             pass
>>> [c["name"] for c in root.to_dict()["children"]]
['candidates', 'verify']

**Tracing off is the default and costs almost nothing**: with no active
trace, :func:`span` returns a shared no-op context manager after a single
``ContextVar.get()`` — the warm serving path stays within its latency
budget whether the instrumentation is compiled in or not.  The ledger's
traced runs record the cost of tracing *on* as ``obs.trace_overhead_frac``
(``benchmarks/ledger/``).

Spans are recorded in the serving process only: a query verified on the
worker pool (:mod:`repro.serving.workers`) shows that stage as one
``scatter_gather`` span.  Only *durations* are recorded, never absolute
wall-clock times.
"""

from __future__ import annotations

import time
import uuid
from contextvars import ContextVar
from typing import Dict, List, Optional, Set, Union

_current_span: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_obs_current_span", default=None
)


def mint_query_id() -> str:
    """A fresh 16-hex-char query/trace id (collision-safe per process fleet)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One named, timed stage of a trace; ``children`` are its sub-stages."""

    __slots__ = ("name", "trace_id", "attributes", "children", "_start", "duration")

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        attributes: Optional[Dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.attributes: Dict = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self._start = time.perf_counter()
        self.duration: Optional[float] = None

    def finish(self) -> "Span":
        if self.duration is None:
            self.duration = time.perf_counter() - self._start
        return self

    def attach(self, child: "Span") -> None:
        """Adopt a child span (one measured elsewhere, like the HTTP tier's
        ``admission``)."""
        self.children.append(child)

    @property
    def duration_ms(self) -> float:
        elapsed = (
            self.duration
            if self.duration is not None
            else time.perf_counter() - self._start
        )
        return elapsed * 1e3

    def to_dict(self) -> Dict:
        """Serialise the (sub)tree: name, duration, attributes, children.

        The trace id is emitted only where it is set: on the trace root.
        """
        out: Dict = {"name": self.name, "duration_ms": self.duration_ms}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        out["children"] = [child.to_dict() for child in self.children]
        return out


def current_span() -> Optional[Span]:
    """The ambient span of this context, or ``None`` (tracing inactive)."""
    return _current_span.get()


class _NullSpanContext:
    """The shared do-nothing context :func:`span` returns when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_span", "_parent", "_token")

    def __init__(self, parent: Span, name: str, attributes: Dict) -> None:
        self._parent = parent
        self._span = Span(name, attributes=attributes)
        self._token = None

    def __enter__(self) -> Span:
        self._span._start = time.perf_counter()
        self._token = _current_span.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.finish()
        self._parent.attach(self._span)
        _current_span.reset(self._token)
        return False


def span(name: str, **attributes) -> Union[_SpanContext, _NullSpanContext]:
    """Open a child span under the ambient trace (no-op without one).

    Usage::

        with span("verify", candidates=len(ids)) as sp:
            ...
            if sp is not None:
                sp.attributes["via_worker_pool"] = True

    The yielded value is the live :class:`Span` (mutate ``attributes``
    freely) — or ``None`` when no trace is active, in which case the whole
    call costs one context-variable read and no allocation.
    """
    parent = _current_span.get()
    if parent is None:
        return _NULL_SPAN
    return _SpanContext(parent, name, attributes)


class _TraceContext:
    __slots__ = ("_span", "_token")

    def __init__(self, name: str, attributes: Dict) -> None:
        self._span = Span(name, trace_id=mint_query_id(), attributes=attributes)
        self._token = None

    def __enter__(self) -> Span:
        self._span._start = time.perf_counter()
        self._token = _current_span.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.finish()
        _current_span.reset(self._token)
        return False


def start_trace(name: str, **attributes) -> _TraceContext:
    """Open a trace root under a fresh :func:`mint_query_id`; subsequent
    :func:`span` calls in this context nest under it."""
    return _TraceContext(name, attributes)


def stage_names(tree: Union[Span, Dict]) -> Set[str]:
    """Every span name in a (serialised or live) trace tree — the helper the
    acceptance tests use to assert stage coverage."""
    node = tree.to_dict() if isinstance(tree, Span) else tree
    names = {node["name"]}
    for child in node.get("children", ()):
        names |= stage_names(child)
    return names
