"""Streaming ingest and standing pattern subscriptions.

The paper's query model is batch-oriented — index a repository, then look up
chart patterns — but a production deployment also sees *live* tables that
grow row-by-row and standing queries ("notify me when any table's recent
window starts matching this chart").  This module opens that workload on top
of the batch machinery without re-encoding whole tables per append:

**Windowed decomposition.**  A streaming table is partitioned into fixed
``segment_rows``-row windows; each window is encoded independently as a
mini-:class:`~repro.data.table.Table` under a composite segment id
(``"{parent}::seg-000003"``).  The partition is a pure function of the total
row count, so any sequence of :func:`append_stream_rows` calls produces
*exactly* the state a single append of the full history would — the parity
property ``tests/test_streaming.py`` pins.  On each append only the windows
overlapping the new rows (the unsealed tail plus any windows the batch
spills into) are re-encoded; sealed windows are never touched, so the
re-encode fraction per batch tends to ``1 / num_windows`` as a stream grows.

**Index granularity.**  Segments — not parents — live in the interval tree,
the LSH and the scorer's encoding cache; intervals are computed per window
and LSH codes from per-window column embeddings, so a pattern onset in the
latest window is visible to the candidate generators immediately.  Queries
still rank *parents*: the scorer composes the per-window encodings into a
parent-level entry (:class:`~repro.fcm.scorer.StreamFamily`) and the
query processor maps raw index hits segment → parent before intersecting.

**Subscriptions.**  A :class:`SubscriptionEngine` holds standing queries.
On each ingest batch it scores *only the dirty segments* — running the int8
quantized coarse pass first when the dirty set is large — and delivers
events (``score >= threshold``, top-``k`` per batch) to a bounded per-
subscription queue and an optional callback.  Notification latency, event
outcomes and per-subscription spans go through :mod:`repro.obs`.

:class:`~repro.serving.SearchService` wires this module to the worker pool
(composed parent entries ship through the mutation-after-map dirty-id sync)
and the HTTP tier (``POST /tables/{id}/rows``, ``POST /subscriptions``,
``GET /subscriptions/{id}/events``).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.column import Column
from ..data.table import Table
from ..fcm.preprocessing import ChartInput
from ..fcm.scorer import FCMScorer
from ..index.hybrid import HybridQueryProcessor
from ..nn import ParameterVersion
from ..obs import MetricsRegistry, current_span, get_logger, span

#: Separator embedded in window-segment ids.  Parent table ids must not
#: contain it — :func:`append_stream_rows` rejects those — so segment ids
#: can never collide with static tables and ownership is recoverable from
#: the id alone.
STREAM_SEGMENT_SEP = "::seg-"

logger = get_logger("serving.streaming")


def segment_table_id(parent_id: str, window: int) -> str:
    """The composite id of ``parent_id``'s ``window``-th row window."""
    return f"{parent_id}{STREAM_SEGMENT_SEP}{window:06d}"


@dataclass
class StreamingConfig:
    """Knobs for the streaming ingest + subscription path.

    Attributes
    ----------
    segment_rows:
        Window size ``W`` of the streaming decomposition: a stream's rows
        ``[i*W, (i+1)*W)`` form its ``i``-th segment.  Smaller windows mean
        cheaper appends (less tail re-encoding) but more index entries.
    max_pending_events:
        Bound on each subscription's undelivered event queue; when a slow
        consumer lets it fill, the *oldest* events are dropped (and counted
        in :class:`SubscriptionStats` / ``repro_subscription_events_total``).
    notify_overscan:
        On ingest the coarse int8 pre-filter engages for a subscription
        whenever more than ``k * notify_overscan`` segments are dirty; only
        the best ``k * notify_overscan`` by coarse score are scored exactly.
    """

    segment_rows: int = 256
    max_pending_events: int = 256
    notify_overscan: int = 8

    def __post_init__(self) -> None:
        if self.segment_rows < 2:
            raise ValueError("segment_rows must be >= 2")
        if self.max_pending_events < 1:
            raise ValueError("max_pending_events must be >= 1")
        if self.notify_overscan < 1:
            raise ValueError("notify_overscan must be >= 1")


@dataclass
class AppendResult:
    """Outcome of one :func:`append_stream_rows` batch."""

    table_id: str
    rows_appended: int
    total_rows: int
    segments_total: int
    #: Segment ids (re-)encoded by this batch, in window order.
    dirty_segments: List[str]
    #: Whether this batch created the stream.
    created: bool
    #: Subscription events fired off this batch (set by the service).
    events_fired: int = 0

    @property
    def reencode_fraction(self) -> float:
        """Fraction of the stream's segments this batch re-encoded."""
        if self.segments_total == 0:
            return 0.0
        return len(self.dirty_segments) / self.segments_total


def _validated_columns(
    columns: Mapping[str, Sequence[float]],
) -> Dict[str, np.ndarray]:
    """Coerce an append payload to float64 arrays, rejecting bad input
    *before* any index state is touched."""
    if not columns:
        raise ValueError("append payload must carry at least one column")
    arrays: Dict[str, np.ndarray] = {}
    length: Optional[int] = None
    for name, values in columns.items():
        if not isinstance(name, str) or not name:
            raise ValueError("column names must be non-empty strings")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(
                f"column {name!r} must be a non-empty 1-D sequence of numbers"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"column {name!r} contains non-finite values")
        if length is None:
            length = int(arr.size)
        elif int(arr.size) != length:
            raise ValueError(
                f"ragged append payload: column {name!r} has {arr.size} rows, "
                f"expected {length}"
            )
        arrays[name] = arr
    return arrays


def append_stream_rows(
    processor: HybridQueryProcessor,
    table_id: str,
    columns: Mapping[str, Sequence[float]],
    *,
    segment_rows: int,
    roles: Optional[Mapping[str, str]] = None,
) -> AppendResult:
    """Append rows to a streaming table, re-encoding only dirty windows.

    The first append for an unknown ``table_id`` creates the stream (with
    ``segment_rows`` fixed for its lifetime and ``roles`` optionally tagging
    columns, e.g. ``{"t": "x"}``); subsequent appends must carry exactly the
    stream's columns and reuse its recorded window size, so a stream restored
    from a snapshot keeps its original partition even if the serving config
    changed.

    Equivalence: the windows are a pure function of the row history, each
    dirty window is encoded from its exact row slice — all of a batch's in
    one :meth:`~repro.fcm.scorer.FCMScorer.index_repository` call, where a
    window's encoding does not depend on the windows beside it — so the
    post-append state is identical to replaying the full history in one
    batch (and rankings match a from-scratch rebuild to float tolerance).
    The index changes in one :meth:`HybridQueryProcessor.write`: the stale
    tail window out, every dirty window in, the new family and state bound.
    """
    if STREAM_SEGMENT_SEP in table_id:
        raise ValueError(
            f"table id {table_id!r} may not contain {STREAM_SEGMENT_SEP!r}"
        )
    if not table_id:
        raise ValueError("table id must be non-empty")
    arrays = _validated_columns(columns)

    family = processor.generation.streams.get(table_id)
    state = family and family.state
    created = state is None
    if created:
        if table_id in processor.table_ids:
            raise ValueError(
                f"table {table_id!r} is already registered as a static table; "
                "appends are only valid on streaming tables"
            )
        state = {
            "segment_rows": int(segment_rows),
            "total_rows": 0,
            "column_names": list(arrays.keys()),
            "roles": {k: str(v) for k, v in (roles or {}).items()},
            "tail": {name: np.empty(0, dtype=np.float64) for name in arrays},
        }
    column_names: List[str] = list(state["column_names"])
    if set(arrays) != set(column_names):
        raise ValueError(
            f"append payload columns {sorted(arrays)} do not match stream "
            f"{table_id!r} columns {sorted(column_names)}"
        )

    window_rows = int(state["segment_rows"])
    old_total = int(state["total_rows"])
    batch_rows = int(next(iter(arrays.values())).size)
    new_total = old_total + batch_rows

    # Rows from the last seal point onward: the buffered unsealed tail plus
    # this batch.  Every dirty window's content is a slice of this.
    seal = (old_total // window_rows) * window_rows
    combined = {
        name: np.concatenate(
            [np.asarray(state["tail"][name], dtype=np.float64), arrays[name]]
        )
        for name in column_names
    }

    first_dirty = old_total // window_rows
    last_dirty = (new_total - 1) // window_rows
    role_of = state["roles"]
    minis: List[Table] = []
    for window in range(first_dirty, last_dirty + 1):
        lo = window * window_rows - seal
        hi = min((window + 1) * window_rows, new_total) - seal
        minis.append(
            Table(
                segment_table_id(table_id, window),
                [
                    Column(name=name, values=combined[name][lo:hi], role=role_of.get(name))
                    for name in column_names
                ],
            )
        )
    dirty_ids = [mini.table_id for mini in minis]
    old_segments = processor.generation.segments(table_id)
    segment_ids = old_segments[:first_dirty] + dirty_ids  # sealed: untouched

    new_seal = (new_total // window_rows) * window_rows
    state = dict(
        state,
        tail={name: combined[name][new_seal - seal :] for name in column_names},
        total_rows=new_total,
    )
    # The tail window may already be encoded from a previous batch with
    # fewer rows: it is dropped and every dirty window encoded, together.
    processor.write(
        drop=old_segments[first_dirty:],
        tables=minis,
        streams={table_id: (segment_ids, state)},
    )

    return AppendResult(
        table_id=table_id,
        rows_appended=batch_rows,
        total_rows=new_total,
        segments_total=len(segment_ids),
        dirty_segments=dirty_ids,
        created=created,
    )


# --------------------------------------------------------------------- #
# Subscriptions
# --------------------------------------------------------------------- #
@dataclass
class SubscriptionEvent:
    """One match notification: a dirty segment scored past the threshold."""

    subscription_id: str
    table_id: str
    segment_id: str
    score: float
    #: Stream row count when the event fired.
    total_rows: int
    #: Monotonic per-subscription sequence number (drops leave gaps).
    seq: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "subscription_id": self.subscription_id,
            "table_id": self.table_id,
            "segment_id": self.segment_id,
            "score": float(self.score),
            "total_rows": int(self.total_rows),
            "seq": int(self.seq),
        }


@dataclass
class SubscriptionStats:
    """Per-subscription delivery counters (exposed via service stats/HTTP)."""

    batches_scored: int = 0
    segments_scored: int = 0
    events_delivered: int = 0
    events_dropped: int = 0
    callback_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "batches_scored": self.batches_scored,
            "segments_scored": self.segments_scored,
            "events_delivered": self.events_delivered,
            "events_dropped": self.events_dropped,
            "callback_errors": self.callback_errors,
        }


class Subscription:
    """One standing pattern query (created via ``SubscriptionEngine.subscribe``).

    ``chart_input`` is the chart as prepared (extracted + preprocessed) at
    subscribe time and ``chart_repr`` its :meth:`FCMScorer.encode_query`
    array; every notification scores from the two, so ``chart`` is never
    hashed, extracted or encoded again — and a later in-place edit of
    ``chart`` does not change what the subscription matches.  The engine
    re-encodes ``chart_repr`` when the chart encoder's weights move.
    """

    def __init__(
        self,
        subscription_id: str,
        chart: LineChart,
        chart_input: ChartInput,
        chart_repr: np.ndarray,
        k: int,
        threshold: float,
        callback: Optional[Callable[[SubscriptionEvent], None]],
        max_pending: int,
    ) -> None:
        self.subscription_id = subscription_id
        self.chart = chart
        self.chart_input = chart_input
        self.chart_repr = chart_repr
        self.k = int(k)
        self.threshold = float(threshold)
        self.callback = callback
        self.max_pending = int(max_pending)
        self.events: Deque[SubscriptionEvent] = deque()
        self.stats = SubscriptionStats()
        self._seq = itertools.count(1)

    def next_seq(self) -> int:
        return next(self._seq)


class SubscriptionEngine:
    """Standing queries evaluated incrementally against dirty segments.

    The engine never rescans a stream: on each ingest batch it receives the
    segment ids that batch re-encoded and scores *only those* for each
    subscription — coarse int8 pass first when the dirty set exceeds
    ``k * notify_overscan`` — so notification cost is bounded by batch size,
    not stream length.  Subscriptions are in-memory serving state: they are
    *not* persisted in snapshots (re-subscribe after a restore).  The
    ``repro_subscription_*`` series go to ``registry`` (the service's).
    """

    def __init__(
        self, scorer: FCMScorer, config: StreamingConfig, registry: MetricsRegistry
    ) -> None:
        self._scorer = scorer
        self.config = config
        self._events = registry.counter(
            "repro_subscription_events_total", "Subscription events by delivery outcome"
        )
        self._notify_seconds = registry.histogram(
            "repro_subscription_notify_seconds",
            "Per-subscription notification latency per ingest batch",
        )
        self._subscriptions: Dict[str, Subscription] = {}
        self._counter = itertools.count(1)
        # The chart encoder's weights version every stored ``chart_repr`` is under.
        self._encoder_version = ParameterVersion(scorer.model.chart_encoder)
        self._encoded_under: Optional[int] = None

    def _refresh_encodings(self) -> int:
        """Re-encode every subscription's chart if the chart encoder's
        weights moved since the stored encodings were computed; returns how
        many charts that encoded (0 while serving)."""
        version = self._encoder_version()
        if version == self._encoded_under:
            return 0
        self._encoded_under = version
        for subscription in self._subscriptions.values():
            subscription.chart_repr = self._scorer.encode_query(subscription.chart_input)
        return len(self._subscriptions)

    # -- lifecycle ----------------------------------------------------- #
    def subscribe(
        self,
        chart: LineChart,
        *,
        k: int = 1,
        threshold: float = 0.0,
        callback: Optional[Callable[[SubscriptionEvent], None]] = None,
    ) -> str:
        """Register a standing query; returns its subscription id.

        ``k`` bounds events per ingest batch (best-scoring dirty segments
        first); ``threshold`` is the minimum exact FCM score that fires an
        event; ``callback``, when given, is invoked synchronously per event
        (exceptions are swallowed and counted — a crashing consumer never
        takes ingest down).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        subscription_id = f"sub-{next(self._counter):06d}"
        # Prepare (extract + preprocess) and encode once at subscribe time
        # and keep both, so per-batch notification skips straight to scoring
        # whatever has cycled through the scorer's preparation cache since.
        self._refresh_encodings()
        chart_input = self._scorer.prepare_query(chart)
        self._subscriptions[subscription_id] = Subscription(
            subscription_id,
            chart,
            chart_input,
            self._scorer.encode_query(chart_input),
            k,
            threshold,
            callback,
            self.config.max_pending_events,
        )
        return subscription_id

    def unsubscribe(self, subscription_id: str) -> bool:
        return self._subscriptions.pop(subscription_id, None) is not None

    def get(self, subscription_id: str) -> Subscription:
        try:
            return self._subscriptions[subscription_id]
        except KeyError:
            raise KeyError(f"unknown subscription {subscription_id!r}") from None

    @property
    def active(self) -> List[str]:
        return sorted(self._subscriptions.keys())

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def delivered(self) -> int:
        """Events delivered so far, across every subscription that ever was."""
        return int(self._events.value(result="delivered"))

    def poll(
        self, subscription_id: str, max_events: Optional[int] = None
    ) -> List[SubscriptionEvent]:
        """Drain (up to ``max_events``) pending events, oldest first."""
        subscription = self.get(subscription_id)
        limit = len(subscription.events) if max_events is None else int(max_events)
        drained: List[SubscriptionEvent] = []
        while subscription.events and len(drained) < limit:
            drained.append(subscription.events.popleft())
        return drained

    # -- delivery ------------------------------------------------------ #
    def notify(
        self,
        dirty: Mapping[str, Sequence[str]],
        totals: Mapping[str, int],
    ) -> int:
        """Score an ingest batch's dirty segments against every subscription.

        ``dirty`` maps parent table id -> segment ids re-encoded by the
        batch; ``totals`` maps parent -> its post-append row count.  Returns
        the number of events enqueued (before any queue-bound drops).

        The dirty segments are projected once, into one transient exact
        pack that every subscription scores against from its stored chart
        encoding (checked against the encoder's weights once per batch).
        """
        if not self._subscriptions or not dirty:
            return 0
        owner = {
            seg_id: parent
            for parent, seg_ids in dirty.items()
            for seg_id in seg_ids
        }
        seg_ids = sorted(owner)
        if not seg_ids:
            return 0
        fired, encodes = 0, self._refresh_encodings()
        start = time.perf_counter()
        pack = self._scorer._transient_pack(seg_ids, self._scorer.generation)
        outer = current_span()  # ``notify``, inside ``SearchService.append_rows``
        if outer is not None:
            pack_ms = round((time.perf_counter() - start) * 1e3, 3)
            rows = len(pack.index) if pack is not None else 0
            outer.attributes.update(encodes=encodes, pack_rows=rows, pack_ms=pack_ms)
        for subscription in self._subscriptions.values():
            start = time.perf_counter()
            with span(
                "subscription",
                subscription_id=subscription.subscription_id,
                dirty_segments=len(seg_ids),
            ) as sp:
                chart_input, chart_repr = subscription.chart_input, subscription.chart_repr
                keep = subscription.k * self.config.notify_overscan
                candidates = seg_ids
                if len(candidates) > keep:
                    candidates = self._scorer.prefilter_ids(
                        chart_input, candidates, keep, chart_repr
                    )
                    if sp is not None:
                        sp.attributes["prefiltered"] = len(candidates)
                scores = self._scorer._score_ids(
                    chart_input, candidates, chart_repr=chart_repr, pack=pack
                )
                subscription.stats.batches_scored += 1
                subscription.stats.segments_scored += len(candidates)
                matches = sorted(
                    (
                        (seg_id, score)
                        for seg_id, score in zip(candidates, scores.tolist())
                        if score >= subscription.threshold
                    ),
                    key=lambda item: (-item[1], item[0]),
                )[: subscription.k]
                if sp is not None:
                    sp.attributes["events"] = len(matches)
                for seg_id, score in matches:
                    parent = owner[seg_id]
                    event = SubscriptionEvent(
                        subscription_id=subscription.subscription_id,
                        table_id=parent,
                        segment_id=seg_id,
                        score=float(score),
                        total_rows=int(totals.get(parent, 0)),
                        seq=subscription.next_seq(),
                    )
                    subscription.events.append(event)
                    subscription.stats.events_delivered += 1
                    self._events.inc(result="delivered")
                    fired += 1
                    while len(subscription.events) > subscription.max_pending:
                        subscription.events.popleft()
                        subscription.stats.events_dropped += 1
                        self._events.inc(result="dropped")
                    if subscription.callback is not None:
                        try:
                            subscription.callback(event)
                        except Exception as exc:  # noqa: BLE001 — consumer bug
                            subscription.stats.callback_errors += 1
                            self._events.inc(result="callback_error")
                            logger.info(
                                "subscription_callback_error",
                                subscription_id=subscription.subscription_id,
                                error=repr(exc),
                            )
            self._notify_seconds.observe(time.perf_counter() - start)
        return fired
