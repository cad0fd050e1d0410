"""Hybrid index and query processor (Sec. VI-A).

Four query-processing strategies are compared in Table VIII:

* **no index** — score every table with FCM (linear scan);
* **interval tree** — only tables whose column ranges overlap the query's
  y-axis range are scored (never loses a true candidate);
* **LSH** — only tables whose column codes collide with a query line's code
  are scored (may lose candidates, bigger reduction);
* **hybrid** — the intersection of the two candidate sets.

The query processor measures the candidate-set sizes and wall-clock time per
query so the efficiency/effectiveness trade-off of Table VIII can be
reproduced directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.scorer import EncodedTable, FCMScorer, _first_by_id
from ..obs import current_span, span
from .interval_tree import IntervalTree, table_bounds
from .lsh import LSHConfig, RandomHyperplaneLSH

INDEXING_STRATEGIES = ("none", "interval", "lsh", "hybrid")


def _top_k(ids: Sequence[str], scores: np.ndarray, k: int) -> List[Tuple[str, float]]:
    """The ``k`` best ``(id, score)`` pairs, best first, ties to the earlier
    id: ``sorted(zip(ids, scores), key=score, reverse=True)[:k]`` as a stable
    descending argsort that builds only the pairs it returns."""
    best = np.argsort(-scores, kind="stable")[:k].tolist()
    return [(ids[row], score) for row, score in zip(best, scores[best].tolist())]


def _check_strategy(strategy: str) -> None:
    if strategy not in INDEXING_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {INDEXING_STRATEGIES}"
        )


@dataclass
class QueryResult:
    """Outcome of one indexed query."""

    ranking: List[Tuple[str, float]]
    candidates: int
    total_tables: int
    seconds: float
    #: Candidates surviving the quantized pre-filter (``None`` when the
    #: pre-filter was off or did not engage because the candidate set was
    #: already at or below the keep budget).
    prefiltered: Optional[int] = None

    @property
    def pruned_fraction(self) -> float:
        if self.total_tables == 0:
            return 0.0
        return 1.0 - self.candidates / self.total_tables

    def top_k_ids(self, k: int) -> List[str]:
        return [table_id for table_id, _ in self.ranking[:k]]


@dataclass
class IndexBuildStats:
    """Time spent building each index structure."""

    interval_seconds: float = 0.0
    lsh_seconds: float = 0.0
    #: Scorable ids after the build or add that returned these stats.
    num_tables: int = 0
    #: Threads the last table encode ran on (``FCMScorer.index_repository``):
    #: 1 is one core, 0 that the build encoded none (a sharded build's merge).
    encode_threads: int = 0
    #: Ids the build or add that returned these stats indexed, in order.
    added: List[str] = field(default_factory=list)


class HybridQueryProcessor:
    """Candidate generation (interval tree + LSH) followed by FCM verification.

    The processor holds the candidate structures only; which tables and
    streams are indexed is recorded once, by the scorer
    (:meth:`FCMScorer.scorable_ids`), and every write to either goes
    through :meth:`write`.
    """

    def __init__(
        self,
        scorer: FCMScorer,
        lsh_config: Optional[LSHConfig] = None,
    ) -> None:
        self.scorer = scorer
        self.lsh_config = lsh_config or LSHConfig()
        self.interval_tree = IntervalTree()
        self.lsh: Optional[RandomHyperplaneLSH] = None
        self.build_stats = IndexBuildStats()
        # Streaming tables live in the structures as their window segments.
        # ``stream_states`` carries the append-engine bookkeeping (row counts,
        # unsealed tail rows) that ``repro.serving.streaming`` computes and
        # :meth:`write` stores with the stream's family, so persistence can
        # snapshot and restore it without an import cycle.
        self.stream_states: Dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    # Build phase
    # ------------------------------------------------------------------ #
    def index_repository(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Encode every table with FCM and build both index structures.

        This is a **from-scratch (re)build**: the scorer's cache, the interval
        tree and the LSH are emptied and rebuilt, so afterwards the index
        holds exactly ``tables``, each encoded from the ``Table`` passed (the
        first, for an id listed twice) — what a fresh processor's build
        holds.  Use :meth:`add_tables` / :meth:`remove_tables` for
        incremental maintenance.

        Table encoding runs through the scorer's chunked path
        (:meth:`FCMScorer.index_repository`): one unpadded dataset-encoder
        forward per chunk and segment count instead of one call per table,
        chunks on every core BLAS leaves free (``build_stats.encode_threads``);
        the LSH then hashes every column embedding in one product.
        """
        return self._rebuild(list(tables))

    def _rebuild(
        self, tables: List[Table], encoded: Optional[Sequence[EncodedTable]] = None
    ) -> IndexBuildStats:
        """:meth:`index_repository`, taking the tables' encodings from
        ``encoded`` when a sharded build computed them already."""
        self.scorer.clear()
        self.interval_tree, self.lsh, self.stream_states = IntervalTree(), None, {}
        self.build_stats = IndexBuildStats()
        self.build_stats.added = self.write(tables=tables, entries=encoded)[0]
        self.build_stats.num_tables = len(self.scorer.indexed_table_ids)
        return self.build_stats

    # ------------------------------------------------------------------ #
    # Incremental maintenance (see repro.serving.SearchService)
    # ------------------------------------------------------------------ #
    def add_tables(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Incrementally index new tables without rebuilding anything.

        Encodings run through the same chunked batched path as a bulk build;
        the interval index appends the new intervals' rows and the LSH gains
        the new codes, so subsequent queries are identical
        to a from-scratch :meth:`index_repository` over the union (a property
        ``tests/test_serving.py`` pins).  Already-indexed table ids are
        skipped, and an id listed twice is added once, as first listed
        (``build_stats.added`` lists the ids this call added).  Build
        timings accumulate into :attr:`build_stats`.
        """
        self.build_stats.added = self.write(tables=tables)[0]
        self.build_stats.num_tables = len(self.scorer.indexed_table_ids)
        return self.build_stats

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure; returns how many were removed.

        The interval index drops the tables' rows, LSH buckets shed the ids,
        and the scorer's cached encodings are evicted so the memory actually
        comes back.  A streaming table lives in the structures as its window
        segments: each is dropped everywhere, then the family.
        """
        return len(self.write(drop=table_ids)[1])

    def write(
        self,
        drop: Iterable[str] = (),
        tables: Iterable[Table] = (),
        entries: Optional[Sequence[EncodedTable]] = None,
        rows: Optional[Tuple[np.ndarray, np.ndarray, Sequence[str], Sequence[str]]] = None,
        streams: Optional[Mapping[str, Tuple[Sequence[str], dict]]] = None,
    ) -> Tuple[List[str], List[str]]:
        """The one write of the index (a build, :meth:`add_tables`,
        :meth:`remove_tables`, a stream append, a snapshot restore); returns
        ``(added, removed)``: the ids whose entries it added and the indexed
        ids it dropped.

        * ``drop``: each indexed id goes with everything it holds (a stream
          parent: its windows, family and state); a window segment goes only
          in the write that rebinds its stream; other ids are ignored.
        * ``tables`` whose id the index holds no entry for after the drops
          (each id's first) are encoded, or registered from ``entries`` (a
          sharded build's, a snapshot's) when given; their interval rows are
          :func:`table_bounds` of ``tables``, or ``rows`` (lows, highs, table
          ids, column names).  The LSH hashes every added entry in one product.
        * ``streams``: parent id -> (ordered segment ids, append state), each
          family bound (:meth:`FCMScorer.bind_stream`) with its state.

        Interval and LSH seconds accumulate into :attr:`build_stats`.
        """
        scorer, streams = self.scorer, streams or {}
        if self.lsh is None:
            self.lsh = RandomHyperplaneLSH(
                scorer.config.embed_dim,
                config=self.lsh_config,
                dtype=scorer.config.numeric_dtype,
            )
        drop = list(drop)
        held = scorer.scorable_ids()[0] if drop else frozenset()
        rebound = {s for parent in streams for s in scorer.stream_segment_ids(parent)}
        removed: Dict[str, None] = {}
        dead: List[str] = []
        for table_id in drop:
            if table_id in held and table_id not in removed:
                removed[table_id] = None
                dead.extend(scorer.drop_stream(table_id) or [table_id])
                self.stream_states.pop(table_id, None)
            elif table_id in rebound:
                dead.append(table_id)
        for entry_id in dead:
            scorer.evict_table(entry_id)

        fresh = [t for t in _first_by_id(tables) if not scorer.holds(t.table_id)]
        if entries is None:
            threads = scorer.index_repository(fresh)
            if fresh:
                self.build_stats.encode_threads = threads
            added = [t.table_id for t in fresh]
        else:  # a sharded merge names its tables, a restore only its entries
            entries = [e for e in _first_by_id(entries) if not scorer.holds(e.table_id)]
            scorer.add_encoded_tables(entries)
            added = [t.table_id for t in fresh or entries]

        start = time.perf_counter()
        self.interval_tree.remove_tables(dead)
        self.interval_tree.add_rows(*(table_bounds(fresh) if rows is None else rows))
        self.build_stats.interval_seconds += time.perf_counter() - start

        start = time.perf_counter()
        for entry_id in dead:
            self.lsh.remove(entry_id)
        self.lsh.add_tables(
            added, [scorer.encoded_table(t).column_embeddings for t in added]
        )
        self.build_stats.lsh_seconds += time.perf_counter() - start

        for parent, (segment_ids, state) in streams.items():
            scorer.bind_stream(parent, segment_ids)
            self.stream_states[parent] = state
        return added, list(removed)

    @property
    def table_ids(self) -> List[str]:
        """The scorable ids (:attr:`FCMScorer.indexed_table_ids`)."""
        return self.scorer.indexed_table_ids

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def _lsh_candidates(self, chart_input, chart_repr=None) -> Set[str]:
        if self.lsh is None:
            raise RuntimeError("index_repository() must be called before querying")
        if chart_repr is None:
            chart_repr = self.scorer.encode_query(chart_input)
        # Line embeddings: each line's mean over its segments.
        return self.lsh.query(chart_repr.mean(axis=1))

    def candidates(self, chart: LineChart, strategy: str) -> AbstractSet[str]:
        """The candidate table ids a strategy would verify with FCM (for
        ``"none"`` the scorer's own immutable id set, not a copy)."""
        _check_strategy(strategy)
        chart_input = None if strategy == "none" else self.scorer.prepare_query(chart)
        return self._candidates(chart_input, strategy)

    def _candidates(
        self, chart_input, strategy: str, chart_repr=None
    ) -> AbstractSet[str]:
        """:meth:`candidates` for an already prepared query (and, when the
        caller holds it, its :meth:`FCMScorer.encode_query` array).

        ``"hybrid"`` looks up LSH first: with no collision the intersection
        is empty whatever the tree holds, so the tree is not stabbed (the
        enclosing span gets ``interval_skipped=True``).  Else the smaller raw
        set is mapped to parents and widened back to their segments, and only
        the part of the larger inside it is mapped — same set, less mapping."""
        all_ids = self.scorer.scorable_ids()[0]
        if strategy == "none":
            return all_ids
        # Streaming tables are indexed as window segments, so raw index hits
        # are mapped segment -> parent *before* intersecting: a hit on any
        # window of a stream makes the whole stream a candidate.
        if strategy != "hybrid":
            with span("interval_tree" if strategy == "interval" else "lsh_lookup") as sp:
                if strategy == "interval":
                    found = self.interval_tree.query_table_ids(*chart_input.y_range)
                else:
                    found = self._lsh_candidates(chart_input, chart_repr)
                found = self.scorer.parents_of(found) & all_ids
                if sp is not None:
                    sp.attributes["candidates"] = len(found)
            return found
        with span("lsh_lookup") as sp:
            small = self._lsh_candidates(chart_input, chart_repr)
            if sp is not None:
                sp.attributes["hits"] = len(small)
        if not small:
            outer = current_span()  # ``candidates``, inside :meth:`query`
            if outer is not None:
                outer.attributes["interval_skipped"] = True
            return small
        with span("interval_tree") as sp:
            large = self.interval_tree.query_table_ids(*chart_input.y_range)
            if sp is not None:
                sp.attributes["hits"] = len(large)
        if len(large) < len(small):
            small, large = large, small
        scorer = self.scorer
        small = scorer.parents_of(small)
        reach = small.union(*map(scorer.stream_segment_ids, filter(scorer.is_stream, small)))
        return small & scorer.parents_of(large & reach) & all_ids

    # ------------------------------------------------------------------ #
    # Query phase
    # ------------------------------------------------------------------ #
    def query(
        self,
        chart: LineChart,
        k: int,
        strategy: str = "hybrid",
        verifier: Optional[Callable[..., Optional[Dict[str, float]]]] = None,
        prefilter_keep: Optional[int] = None,
        fingerprint: Optional[str] = None,
    ) -> QueryResult:
        """Run one top-``k`` query under the chosen indexing strategy.

        The chart is prepared once (:meth:`FCMScorer.prepare_query`) and
        encoded once (:meth:`FCMScorer.encode_query`); LSH lookup, the coarse
        pass and verification all work from that one array.  A caller that
        already holds ``chart.fingerprint()`` passes it as ``fingerprint``
        and the pixels are not hashed again.  Candidates are verified in
        sorted-id order and stay a score array aligned with it up to the
        top-``k`` (:func:`_top_k`); "every table" is the scorer's own sorted
        list (:meth:`FCMScorer.scorable_ids`), which it scans id-free.

        ``verifier`` optionally replaces the in-process verification stage:
        it is called as ``verifier(chart_input, ordered_ids)`` and must
        return ``{table_id: score}`` covering every candidate — or ``None``
        to decline, in which case verification runs in-process as usual.  This is the hook the serving layer routes its process-level
        :class:`~repro.serving.workers.QueryWorkerPool` through (returning
        ``None`` on any pool failure, so a query is never lost to a dead
        worker).

        ``prefilter_keep`` (when set) runs the int8 quantized pre-filter
        before verification whenever more candidates than that survive the
        index strategies: only the best ``prefilter_keep`` by the cheap proxy
        score go on to exact scoring (in-process *or* worker-pool — the
        reduction happens before the shard split).
        """
        _check_strategy(strategy)
        start = time.perf_counter()
        chart_input = self.scorer.prepare_query(chart, fingerprint)
        chart_repr = self.scorer.encode_query(chart_input)
        all_ids, all_ordered = self.scorer.scorable_ids()
        with span("candidates", strategy=strategy) as sp:
            candidate_ids = self._candidates(chart_input, strategy, chart_repr)
            if not candidate_ids:
                # An over-aggressive filter should degrade, not crash: fall
                # back to verifying everything (still counted in the timing).
                candidate_ids = all_ids
                if sp is not None:
                    sp.attributes["empty_fallback"] = True
            if sp is not None:
                sp.attributes["candidates"] = len(candidate_ids)
                sp.attributes["total_tables"] = len(all_ids)
        ordered = all_ordered if candidate_ids is all_ids else sorted(candidate_ids)
        prefiltered: Optional[int] = None
        if prefilter_keep is not None and 0 < prefilter_keep < len(ordered):
            with span(
                "prefilter", candidates=len(ordered), keep=int(prefilter_keep)
            ):
                ordered = self.scorer.prefilter_ids(
                    chart_input, ordered, int(prefilter_keep), chart_repr
                )
            prefiltered = len(ordered)
        # FCM verification runs the batched no-grad path (score_encoded_batch
        # as an array, FCMScorer._score_ids) over every surviving candidate.
        pooled: Optional[Dict[str, float]] = None
        with span("verify", candidates=len(ordered)) as sp:
            if verifier is not None:
                pooled = verifier(chart_input, ordered)
                if sp is not None:
                    sp.attributes["via_worker_pool"] = pooled is not None
            if pooled is None:
                scores = self.scorer._score_ids(
                    chart_input, ordered, chart_repr=chart_repr
                )
        with span("merge", scored=len(ordered)):
            if pooled is None:
                ranking = _top_k(ordered, scores, k)
            else:  # a worker-pool verdict arrives keyed by id
                ranking = sorted(pooled.items(), key=lambda kv: kv[1], reverse=True)[:k]
        elapsed = time.perf_counter() - start
        return QueryResult(
            ranking=ranking,
            candidates=len(candidate_ids),
            total_tables=len(all_ids),
            seconds=elapsed,
            prefiltered=prefiltered,
        )
