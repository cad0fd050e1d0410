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
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.scorer import EncodedTable, FCMScorer, IndexBuildStats, IndexGeneration
from ..obs import current_span, span
from .interval_tree import IntervalTree
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


class HybridQueryProcessor:
    """Candidate generation (interval tree + LSH) followed by FCM verification.

    The index is the scorer's one :class:`~repro.fcm.scorer.IndexGeneration`:
    registry, packs and this processor's candidate structures alike.  A new
    processor starts its scorer from the empty index; every write goes
    through :meth:`write`, which advances it (:meth:`FCMScorer.write`); a
    query reads it once and works from that value throughout.
    """

    def __init__(
        self,
        scorer: FCMScorer,
        lsh_config: Optional[LSHConfig] = None,
    ) -> None:
        self.scorer = scorer
        self.lsh_config = lsh_config or LSHConfig()
        scorer.write(start=self._empty())

    def _empty(self) -> IndexGeneration:
        """The empty index, with an empty interval index and LSH."""
        config = self.scorer.config
        lsh = RandomHyperplaneLSH(
            config.embed_dim, config=self.lsh_config, dtype=config.numeric_dtype
        )
        return IndexGeneration.empty(IntervalTree(), lsh)

    @property
    def generation(self) -> IndexGeneration:
        """The index as it stands: the scorer's current generation."""
        return self.scorer.generation

    @property
    def build_stats(self) -> IndexBuildStats:
        """What the last write did (:attr:`IndexGeneration.stats`)."""
        return self.scorer.generation.stats

    @property
    def lsh(self) -> RandomHyperplaneLSH:
        return self.scorer.generation.lsh

    # ------------------------------------------------------------------ #
    # Build phase
    # ------------------------------------------------------------------ #
    def index_repository(
        self, tables: Iterable[Table], encoded: Optional[Sequence[EncodedTable]] = None, **restore
    ) -> IndexBuildStats:
        """Encode every table with FCM and build both index structures.

        This is a **from-scratch (re)build**: it advances the empty
        generation, so afterwards the index holds exactly ``tables``, each
        encoded from the ``Table`` passed (the first, for an id listed
        twice) — what a fresh processor's build holds.  Use
        :meth:`add_tables` / :meth:`remove_tables` for incremental
        maintenance.  ``encoded`` are the tables' encodings when a sharded
        build computed them already; a snapshot restore passes its entries
        there, its ``rows`` and ``streams`` too (:meth:`write`).

        Table encoding runs through the scorer's chunked path
        (:meth:`FCMScorer.index_repository`): one unpadded dataset-encoder
        forward per chunk and segment count instead of one call per table,
        chunks on every core BLAS leaves free (``build_stats.encode_threads``);
        the LSH then hashes every column embedding in one product.
        """
        return self.write(start=self._empty(), tables=tables, entries=encoded, **restore)

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
        (``build_stats.added`` lists the ids this call added).
        """
        return self.write(tables=tables)

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure; returns how many were removed.

        The interval index drops the tables' rows, LSH buckets shed the ids,
        and their encodings leave the index (their memory comes back once no
        reader holds an older generation).  A streaming table lives in the
        structures as its window segments: each is dropped everywhere, then
        the family.
        """
        return len(self.write(drop=table_ids).removed)

    def write(self, **changes) -> IndexBuildStats:
        """The one write of the index (a build, :meth:`add_tables`,
        :meth:`remove_tables`, a stream append, a snapshot restore): the
        scorer's generation advanced by ``changes`` — the arguments of
        :meth:`FCMScorer.advance` — and swapped in.  Returns what it did
        (:attr:`IndexGeneration.stats`).
        """
        return self.scorer.write(**changes).stats

    @property
    def table_ids(self) -> List[str]:
        """The scorable ids (:attr:`FCMScorer.indexed_table_ids`)."""
        return self.scorer.indexed_table_ids

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidates(self, chart: LineChart, strategy: str) -> AbstractSet[str]:
        """The candidate table ids a strategy would verify with FCM (for
        ``"none"`` the generation's own immutable id set, not a copy)."""
        _check_strategy(strategy)
        chart_input = None if strategy == "none" else self.scorer.prepare_query(chart)
        return self._candidates(self.scorer.generation, chart_input, strategy)

    def _candidates(
        self, generation: IndexGeneration, chart_input, strategy: str, chart_repr=None
    ) -> AbstractSet[str]:
        """:meth:`candidates` in ``generation`` for an already prepared query
        (and, when the caller holds it, its :meth:`FCMScorer.encode_query`
        array).

        ``"hybrid"`` looks up LSH first: with no collision the intersection
        is empty whatever the tree holds, so the tree is not stabbed (the
        enclosing span gets ``interval_skipped=True``).  Else the smaller raw
        set is mapped to parents and widened back to their segments, and only
        the part of the larger inside it is mapped — same set, less mapping."""
        all_ids = generation.scorable[0]
        if strategy == "none":
            return all_ids

        def lsh_hits() -> Set[str]:
            lines = self.scorer.encode_query(chart_input) if chart_repr is None else chart_repr
            # Line embeddings: each line's mean over its segments.
            return generation.lsh.query(lines.mean(axis=1))

        # Streaming tables are indexed as window segments, so raw index hits
        # are mapped segment -> parent *before* intersecting: a hit on any
        # window of a stream makes the whole stream a candidate.
        if strategy != "hybrid":
            with span("interval_tree" if strategy == "interval" else "lsh_lookup") as sp:
                if strategy == "interval":
                    found = generation.intervals.query_table_ids(*chart_input.y_range)
                else:
                    found = lsh_hits()
                found = generation.parents_of(found) & all_ids
                if sp is not None:
                    sp.attributes["candidates"] = len(found)
            return found
        with span("lsh_lookup") as sp:
            small = lsh_hits()
            if sp is not None:
                sp.attributes["hits"] = len(small)
        if not small:
            outer = current_span()  # ``candidates``, inside :meth:`query`
            if outer is not None:
                outer.attributes["interval_skipped"] = True
            return small
        with span("interval_tree") as sp:
            large = generation.intervals.query_table_ids(*chart_input.y_range)
            if sp is not None:
                sp.attributes["hits"] = len(large)
        if len(large) < len(small):
            small, large = large, small
        small = generation.parents_of(small)
        streams = filter(generation.streams.__contains__, small)
        reach = small.union(*map(generation.segments, streams))
        return small & generation.parents_of(large & reach) & all_ids

    # ------------------------------------------------------------------ #
    # Query phase
    # ------------------------------------------------------------------ #
    def query(
        self,
        chart: LineChart,
        k: int,
        strategy: str = "hybrid",
        verifier: Optional[Callable[..., Optional[np.ndarray]]] = None,
        prefilter_keep: Optional[int] = None,
        fingerprint: Optional[str] = None,
        generation: Optional[IndexGeneration] = None,
    ) -> QueryResult:
        """Run one top-``k`` query under the chosen indexing strategy.

        The chart is prepared once (:meth:`FCMScorer.prepare_query`) and
        encoded once (:meth:`FCMScorer.encode_query`); LSH lookup, the coarse
        pass and verification all work from that one array, and from one
        generation — ``generation``, or the current one read on entry: a
        write that lands mid-query is not seen by any of its stages.  A
        caller that already holds ``chart.fingerprint()`` passes it as
        ``fingerprint`` and the pixels are not hashed again.  Candidates are
        verified in sorted-id order and stay a score array aligned with it up to the
        top-``k`` (:func:`_top_k`); "every table" is the scorer's own sorted
        list (``generation.scorable``), which it scans id-free.

        ``verifier`` optionally replaces the in-process verification stage:
        it is called as ``verifier(chart_input, ordered_ids)`` and must
        return the candidates' scores as an array aligned with
        ``ordered_ids`` — or ``None`` to decline, in which case verification
        runs in-process as usual.  This is the hook the serving layer routes
        its process-level :class:`~repro.serving.workers.QueryWorkerPool`
        through (returning ``None`` on any pool failure, so a query is never
        lost to a dead worker).

        ``prefilter_keep`` (when set) runs the int8 quantized pre-filter
        before verification whenever more candidates than that survive the
        index strategies: only the best ``prefilter_keep`` by the cheap proxy
        score go on to exact scoring (in-process *or* worker-pool — the
        reduction happens before the shard split).
        """
        _check_strategy(strategy)
        start = time.perf_counter()
        generation = generation or self.scorer.generation  # every stage reads this one index
        chart_input = self.scorer.prepare_query(chart, fingerprint)
        chart_repr = self.scorer.encode_query(chart_input)
        all_ids, all_ordered = generation.scorable
        with span("candidates", strategy=strategy) as sp:
            candidate_ids = self._candidates(generation, chart_input, strategy, chart_repr)
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
                    chart_input, ordered, int(prefilter_keep), chart_repr, generation
                )
            prefiltered = len(ordered)
        # FCM verification runs the batched no-grad path (score_encoded_batch
        # as an array, FCMScorer._score_ids) over every surviving candidate.
        with span("verify", candidates=len(ordered)) as sp:
            scores = None if verifier is None else verifier(chart_input, ordered)
            if sp is not None and verifier is not None:
                sp.attributes["via_worker_pool"] = scores is not None
            if scores is None:
                scores = self.scorer._score_ids(
                    chart_input, ordered, chart_repr=chart_repr, generation=generation
                )
        with span("merge", scored=len(ordered)):
            ranking = _top_k(ordered, scores, k)
        elapsed = time.perf_counter() - start
        return QueryResult(
            ranking=ranking,
            candidates=len(candidate_ids),
            total_tables=len(all_ids),
            seconds=elapsed,
            prefiltered=prefiltered,
        )
