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
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.scorer import FCMScorer
from ..obs import current_span, span
from .interval_tree import IntervalTree, build_interval_index
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
    num_tables: int = 0
    #: Threads the build's table encode ran on (``FCMScorer.index_repository``):
    #: 1 is one core, 0 that every table was encoded already.
    encode_threads: int = 0


class HybridQueryProcessor:
    """Candidate generation (interval tree + LSH) followed by FCM verification."""

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
        # ``None`` values mark tables known only through a restored snapshot
        # (their encodings are cached, the raw Table object was not saved).
        self._tables: Dict[str, Optional[Table]] = {}
        # Streaming tables: parent id -> ordered window-segment ids.  The
        # segments live in the index structures and the scorer's encoding
        # cache; the parent lives in ``_tables`` (value ``None``) so queries
        # rank parents, never raw segments.  ``stream_states`` carries the
        # append-engine bookkeeping (row counts, unsealed tail rows) owned by
        # ``repro.serving.streaming`` — kept here so persistence can snapshot
        # and restore it without an import cycle.
        self._streams: Dict[str, List[str]] = {}
        self.stream_states: Dict[str, dict] = {}
        # The registry's id set and its sorted list, rebuilt on the first
        # query after a mutation instead of on every query.
        self._id_cache: Optional[Tuple[frozenset, List[str]]] = None

    def _registry_changed(self) -> None:
        """``_tables`` gained or lost an id."""
        self._id_cache = None
        self.build_stats.num_tables = len(self._tables)

    def _ids(self) -> Tuple[frozenset, List[str]]:
        """``(id set, sorted ids)`` of the registry; callers must not mutate."""
        if self._id_cache is None:
            self._id_cache = (frozenset(self._tables), sorted(self._tables))
        return self._id_cache

    # ------------------------------------------------------------------ #
    # Build phase
    # ------------------------------------------------------------------ #
    def index_repository(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Encode every table with FCM and build both index structures.

        This is a **from-scratch (re)build**: the interval tree, the LSH and
        the table registry are replaced wholesale, so calling it again on a
        long-lived processor leaves every strategy consistent with exactly
        the tables passed (previously cached encodings stay in the scorer —
        re-indexing a known table is free).  Use :meth:`add_tables` /
        :meth:`remove_tables` for incremental maintenance.

        Table encoding runs through the scorer's chunked path
        (:meth:`FCMScorer.index_repository`): one unpadded dataset-encoder
        forward per chunk and segment count instead of one call per table,
        chunks on every core BLAS leaves free (``build_stats.encode_threads``);
        the LSH then hashes every column embedding in one product.
        """
        tables = list(tables)
        for parent_id in list(self._streams):
            for seg_id in self.scorer.drop_stream(parent_id):
                self.scorer.evict_table(seg_id)
        self._streams = {}
        self.stream_states = {}
        self._tables = {table.table_id: table for table in tables}
        self._registry_changed()
        encode_threads = self.scorer.index_repository(tables)

        start = time.perf_counter()
        self.interval_tree = build_interval_index(tables)
        interval_seconds = time.perf_counter() - start

        self.lsh = None
        lsh_seconds = self._hash_tables([t.table_id for t in tables])

        self.build_stats = IndexBuildStats(
            interval_seconds=interval_seconds,
            lsh_seconds=lsh_seconds,
            num_tables=len(self._tables),
            encode_threads=encode_threads,
        )
        return self.build_stats

    # ------------------------------------------------------------------ #
    # Incremental maintenance (see repro.serving.SearchService)
    # ------------------------------------------------------------------ #
    def _ensure_lsh(self) -> RandomHyperplaneLSH:
        if self.lsh is None:
            self.lsh = RandomHyperplaneLSH(
                self.scorer.config.embed_dim,
                config=self.lsh_config,
                dtype=self.scorer.config.numeric_dtype,
            )
        return self.lsh

    def _hash_tables(self, table_ids: Sequence[str]) -> float:
        """Add the cached tables' column codes to the LSH
        (:meth:`RandomHyperplaneLSH.add_tables`: every column embedding
        hashed by one product); returns the seconds it took.  The one
        hashing path of a build, :meth:`add_tables` and a snapshot restore
        (snapshots store no codes)."""
        start = time.perf_counter()
        self._ensure_lsh().add_tables(
            table_ids, [self.scorer.encoded_table(t).column_embeddings for t in table_ids]
        )
        return time.perf_counter() - start

    def add_tables(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Incrementally index new tables without rebuilding anything.

        Encodings run through the same chunked batched path as a bulk build;
        the interval index appends the new intervals' rows and the LSH gains
        the new codes, so subsequent queries are identical
        to a from-scratch :meth:`index_repository` over the union (a property
        ``tests/test_serving.py`` pins).  Already-indexed table ids are
        skipped.  Build timings accumulate into :attr:`build_stats`.
        """
        new_tables = [t for t in tables if t.table_id not in self._tables]
        if not new_tables:
            return self.build_stats
        for table in new_tables:
            self._tables[table.table_id] = table
        self._registry_changed()
        self.scorer.index_repository(new_tables)

        start = time.perf_counter()
        for table in new_tables:
            self.interval_tree.add_table(table)
        interval_seconds = time.perf_counter() - start

        self.build_stats.interval_seconds += interval_seconds
        self.build_stats.lsh_seconds += self._hash_tables([t.table_id for t in new_tables])
        return self.build_stats

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure; returns how many were removed.

        The interval index drops the tables' rows, LSH buckets shed the ids,
        and the scorer's cached encodings are evicted so the memory actually
        comes back.
        """
        removed = 0
        for table_id in table_ids:
            if table_id not in self._tables:
                continue
            del self._tables[table_id]
            if table_id in self._streams:
                # A streaming table lives in the structures as its window
                # segments: drop each segment everywhere, then the family.
                for seg_id in self._streams.pop(table_id):
                    self.interval_tree.remove_table(seg_id)
                    if self.lsh is not None:
                        self.lsh.remove(seg_id)
                    self.scorer.evict_table(seg_id)
                self.scorer.drop_stream(table_id)
                self.stream_states.pop(table_id, None)
            else:
                self.interval_tree.remove_table(table_id)
                if self.lsh is not None:
                    self.lsh.remove(table_id)
                self.scorer.evict_table(table_id)
            removed += 1
        self._registry_changed()
        return removed

    def register_tables(self, table_ids: Iterable[str]) -> None:
        """Track ``table_ids`` as part of the repository (snapshot restore).

        The serving persistence layer registers ids whose encodings were
        loaded from disk; no raw :class:`Table` is kept because queries only
        touch the cached encodings and index structures.
        """
        self._tables.update(dict.fromkeys(table_ids))
        self._registry_changed()

    def register_stream(
        self,
        parent_id: str,
        segment_ids: Sequence[str],
        state: Optional[dict] = None,
    ) -> None:
        """Track ``parent_id`` as a streaming table made of ``segment_ids``.

        Called by the append engine (``repro.serving.streaming``) when a
        stream is created or its segment family changes, and by the
        persistence layer when restoring a snapshot that carried streams.
        The segments must already be encoded in the scorer; the parent is
        registered as a queryable id backed by the scorer's composed entry.
        """
        known = parent_id in self._tables
        self._tables[parent_id] = None
        self._streams[parent_id] = list(segment_ids)
        if state is not None:
            self.stream_states[parent_id] = state
        self.scorer.bind_stream(parent_id, segment_ids)
        if not known:  # an append to a registered stream moves no id
            self._registry_changed()

    @property
    def streams(self) -> Dict[str, List[str]]:
        """Parent id -> ordered segment ids for every streaming table."""
        return {parent: list(segs) for parent, segs in self._streams.items()}

    @property
    def table_ids(self) -> List[str]:
        return list(self._tables.keys())

    @property
    def persisted_table_ids(self) -> List[str]:
        """The ids whose encodings a snapshot must carry.

        Static tables persist as themselves; a streaming table persists as
        its window segments (the parent's composed entry is derived state,
        rebuilt from the segments on load), so parents are replaced by their
        segment families here.
        """
        ids = [tid for tid in self._tables if tid not in self._streams]
        for parent in self._streams:
            ids.extend(self._streams[parent])
        return ids

    def _to_parents(self, found: Set[str]) -> Set[str]:
        """Map segment ids in a raw candidate set to their stream parents."""
        if not self._streams:
            return found
        owner = self.scorer.segment_owner
        return {owner(table_id) or table_id for table_id in found}

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def _lsh_candidates(self, chart_input, chart_repr=None) -> Set[str]:
        if self.lsh is None:
            raise RuntimeError("index_repository() must be called before querying")
        if chart_repr is None:
            chart_repr = self.scorer.encode_query(chart_input)
        # Line embeddings (FCMModel.line_embeddings): mean over the segments.
        return self.lsh.query(chart_repr.mean(axis=1))

    def candidates(self, chart: LineChart, strategy: str) -> AbstractSet[str]:
        """The candidate table ids a strategy would verify with FCM (for
        ``"none"`` the registry's own immutable id set, not a copy)."""
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
        all_ids = self._ids()[0]
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
                found = self._to_parents(found) & all_ids
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
        small = self._to_parents(small)
        reach = small.union(*(self._streams[p] for p in small if p in self._streams))
        return small & self._to_parents(large & reach) & all_ids

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
        top-``k`` (:func:`_top_k`); "every table" is the registry's one cached
        list, which the scorer recognises by identity and scans id-free.

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
        all_ids, all_ordered = self._ids()
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
                sp.attributes["total_tables"] = len(self._tables)
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
            total_tables=len(self._tables),
            seconds=elapsed,
            prefiltered=prefiltered,
        )
