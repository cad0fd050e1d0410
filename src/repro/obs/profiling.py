"""Profiling hooks: the slow-query log and per-request cProfile capture.

Two ways to answer "*where did that query's time go?*":

* **Slow-query log** — set ``REPRO_SLOW_QUERY_MS`` (e.g. ``250``) and every
  traced query whose total duration crosses the threshold logs its full
  span tree as one structured ``slow_query`` event
  (:func:`maybe_log_slow_query`, called by :func:`trace_root`, which every
  trace root of the serving stack runs under).
* **Per-request cProfile** — a ``POST /query`` body may carry
  ``{"debug": {"profile": true}}``; the handler wraps just that request's
  service call in :func:`profile_block` and returns the formatted top of
  the profile in the response's ``debug.profile`` field.  Scoped to one
  request by construction — the profiler starts after admission and stops
  before the response is serialised, so neighbouring traffic is never
  slowed.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from contextlib import contextmanager
from typing import Dict, Optional, Union

from .log import ObsLogger, get_logger
from .tracing import Span, current_span, start_trace

_log = get_logger("repro.obs.profiling")


def slow_query_threshold_ms() -> Optional[float]:
    """The ``REPRO_SLOW_QUERY_MS`` threshold, or ``None`` when unset/invalid.

    Non-positive and unparsable values disable the slow-query log (and a
    malformed value is itself logged once per read, so a typo is visible).
    """
    raw = os.environ.get("REPRO_SLOW_QUERY_MS")
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        _log.info("slow_query_threshold_invalid", value=raw)
        return None
    return value if value > 0 else None


def maybe_log_slow_query(
    trace: Union[Span, Dict],
    logger: Optional[ObsLogger] = None,
    threshold_ms: Optional[float] = None,
) -> bool:
    """Log ``trace``'s full span tree if it crossed the slow-query threshold.

    ``trace`` is a finished trace root (live :class:`~repro.obs.tracing.Span`
    or its ``to_dict()`` form); ``threshold_ms`` defaults to
    :func:`slow_query_threshold_ms`.  Returns whether a record was emitted —
    the event fires at *info* level: an operator who configured a threshold
    wants to see the offenders.
    """
    threshold = (
        slow_query_threshold_ms() if threshold_ms is None else float(threshold_ms)
    )
    if threshold is None:
        return False
    tree = trace.to_dict() if isinstance(trace, Span) else trace
    duration_ms = float(tree.get("duration_ms", 0.0))
    if duration_ms < threshold:
        return False
    (logger or _log).info(
        "slow_query",
        trace_id=tree.get("trace_id"),
        duration_ms=duration_ms,
        threshold_ms=threshold,
        spans=tree,
    )
    return True


@contextmanager
def trace_root(owner, enabled: bool, name: str, started: Optional[float] = None, **attributes):
    """Run the block under a new trace root named ``name``, or untraced.

    The root opens when ``enabled`` and no trace is active (a caller that
    already opened one keeps it), and the block gets it; otherwise the block
    gets ``None`` and costs nothing more.  ``started`` (a
    :func:`time.perf_counter` reading) dates the root back to a stage
    measured before it opened.  When the block finishes, the root's span
    tree is stored on ``owner.last_trace`` and offered to the slow-query log
    (:func:`maybe_log_slow_query`).
    """
    if not enabled or current_span() is not None:
        yield None
        return
    with start_trace(name, **attributes) as root:
        if started is not None:
            root._start = started
        yield root
    owner.last_trace = tree = root.to_dict()
    maybe_log_slow_query(tree)


class ProfileCapture:
    """The outcome of one :func:`profile_block` (render with :meth:`text`)."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self._profile = profile

    def text(self, top: int = 25, sort: str = "cumulative") -> str:
        """The profile's top ``top`` functions as ``pstats`` text."""
        buffer = io.StringIO()
        stats = pstats.Stats(self._profile, stream=buffer)
        stats.strip_dirs().sort_stats(sort).print_stats(top)
        return buffer.getvalue()


@contextmanager
def profile_block():
    """Run the enclosed block under ``cProfile``; yields a
    :class:`ProfileCapture` whose stats are available after the block exits.

    >>> with profile_block() as capture:
    ...     sum(range(1000))
    500500
    >>> "function calls" in capture.text(top=5)
    True
    """
    profiler = cProfile.Profile()
    capture = ProfileCapture(profiler)
    profiler.enable()
    try:
        yield capture
    finally:
        profiler.disable()
