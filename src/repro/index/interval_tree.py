"""Interval tree over column value ranges (Sec. VI-A).

Each column ``C`` of each candidate table is indexed by the interval
``[min(C), sum(C)]`` — the extreme values any of the supported aggregations
of the column could produce.  At query time the y-axis range extracted from
the chart is used as a stabbing/overlap query; every table with at least one
overlapping column survives.  The interval tree never prunes a true positive
(a property the tests verify), so retrieval quality is identical to a linear
scan while the candidate set shrinks.

The implementation is a classic centered interval tree plus the two pieces a
*serving* deployment needs on top of the paper's build-offline/query-online
usage (see ``repro.serving``):

* **incremental adds** — intervals added after :meth:`build` land in a small
  pending buffer that queries scan linearly, so a handful of new tables never
  trigger an O(n log n) rebuild;
* **tombstone removes** — :meth:`remove_table` marks a table id dead without
  touching the tree; queries filter tombstoned intervals out.

Both are *exact*: query answers are always identical to rebuilding from
scratch over the live intervals (a property the tests verify).  When the
pending buffer or the tombstone set grows past a fraction of the tree, the
structure compacts itself with a full rebuild.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.table import Table


class _Fields(NamedTuple):
    low: float
    high: float
    table_id: str
    column_name: str


class Interval(_Fields):
    """A closed interval tagged with the table/column it came from.

    An immutable value (a named tuple): ``Interval._make(row)`` builds one
    without the bound check, for rows validated in bulk beforehand.
    """

    __slots__ = ()

    def __new__(cls, low: float, high: float, table_id: str, column_name: str):
        if high < low:
            raise ValueError(f"interval high ({high}) must be >= low ({low})")
        return super().__new__(cls, low, high, table_id, column_name)

    def overlaps(self, low: float, high: float) -> bool:
        return self.high >= low and self.low <= high


class _Node:
    """One node of the centered interval tree."""

    __slots__ = ("center", "by_low", "by_high", "left", "right")

    def __init__(
        self, center: float, by_low: List[Interval], by_high: List[Interval]
    ) -> None:
        self.center = center
        self.by_low = by_low  # ascending low
        self.by_high = by_high  # descending high
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class IntervalTree:
    """Centered interval tree with incremental adds and tombstone removes.

    Queries over any interleaving of :meth:`add` / :meth:`remove_table` calls
    return exactly what a from-scratch rebuild over the live intervals would;
    :meth:`build` (also triggered automatically once the pending buffer or
    tombstone set grows past :attr:`COMPACT_FRACTION` of the tree) compacts
    the incremental state back into a pure tree.
    """

    #: Minimum incremental-state size before an automatic compaction.
    COMPACT_MIN = 64
    #: Fraction of the built tree the pending buffer / tombstoned intervals
    #: may reach before an automatic compaction.
    COMPACT_FRACTION = 0.25

    def __init__(self, intervals: Optional[Iterable[Interval]] = None) -> None:
        self._tree_intervals: List[Interval] = []  # what the built tree covers
        self._pending: List[Interval] = list(intervals or [])
        self._removed: Set[str] = set()  # tombstoned table ids
        self._num_tombstoned = 0  # tree intervals covered by tombstones
        self._root: Optional[_Node] = None
        self._built = False
        if intervals is not None:
            self.build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, interval: Interval) -> None:
        """Add an interval.

        Before the first :meth:`build` this stages the interval for the
        initial bulk construction; afterwards it lands in the pending buffer
        (scanned linearly by queries) so incremental adds stay cheap.
        """
        if interval.table_id in self._removed:
            # Re-adding a tombstoned table: materialise the tombstone first
            # so the stale tree copies cannot resurrect alongside the new one.
            self.build()
        self._pending.append(interval)
        if self._built:
            self._maybe_compact()

    def add_table(self, table: Table) -> None:
        """Index every column of ``table`` by its ``[min, max(sum, max)]`` interval.

        Payloads are coerced to Python floats, so intervals are identical
        whatever precision the column arrays carry (float32 tables hash,
        snapshot and compare exactly like float64 ones).
        """
        for interval in table_intervals(table):
            self.add(interval)

    def replace_table(self, table: Table) -> None:
        """Atomically refresh every interval of ``table`` (streaming ingest).

        Equivalent to ``remove_table`` followed by ``add_table`` — the
        idiom of the windowed streaming path, where a partially filled tail
        window is re-encoded on every append batch and its (segment-id)
        intervals must track the new content.  Exactness is inherited: the
        re-add of a tombstoned id compacts first, so a stale tree copy can
        never resurrect alongside the replacement.
        """
        self.remove_table(table.table_id)
        self.add_table(table)

    def remove_table(self, table_id: str) -> int:
        """Drop every interval of ``table_id``; returns how many were removed.

        Tree-resident intervals are tombstoned (filtered out of query
        results) rather than physically deleted; pending intervals are
        dropped immediately.  Compaction reclaims tombstones.
        """
        removed = 0
        kept: List[Interval] = []
        for interval in self._pending:
            if interval.table_id == table_id:
                removed += 1
            else:
                kept.append(interval)
        self._pending = kept
        if table_id not in self._removed:
            in_tree = sum(
                1 for interval in self._tree_intervals if interval.table_id == table_id
            )
            if in_tree:
                self._removed.add(table_id)
                self._num_tombstoned += in_tree
                removed += in_tree
        if self._built:
            self._maybe_compact()
        return removed

    def build(self) -> "IntervalTree":
        """(Re)build the tree over the live intervals (compacts tombstones)."""
        live = self.intervals
        bounds = np.array([(iv.low, iv.high) for iv in live], dtype=np.float64)
        bounds = bounds.reshape(len(live), 2)
        return self._install(live, bounds[:, 0], bounds[:, 1])

    @classmethod
    def from_arrays(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        table_ids: Sequence[str],
        column_names: Sequence[str],
    ) -> "IntervalTree":
        """The built tree over intervals given as parallel columns (snapshot
        restore).  The bounds are not checked one by one: they must be finite
        with ``lows <= highs``, which the caller validates in bulk."""
        items = list(
            map(
                Interval._make,
                zip(lows.tolist(), highs.tolist(), table_ids, column_names),
            )
        )
        return cls()._install(items, lows, highs)

    def _install(
        self, items: List[Interval], lows: np.ndarray, highs: np.ndarray
    ) -> "IntervalTree":
        self._tree_intervals = items
        self._pending = []
        self._removed = set()
        self._num_tombstoned = 0
        self._root = self._build(items, lows, highs)
        self._built = True
        return self

    def _maybe_compact(self) -> None:
        threshold = max(self.COMPACT_MIN, int(self.COMPACT_FRACTION * len(self._tree_intervals)))
        if len(self._pending) > threshold or self._num_tombstoned > threshold:
            self.build()

    @staticmethod
    def _build(
        items: List[Interval], lows: np.ndarray, highs: np.ndarray
    ) -> Optional[_Node]:
        """The centered tree over ``items`` (bounds ``lows`` / ``highs``).

        A node's centre is the median of its intervals' distinct endpoints;
        the intervals containing it stay at the node, those wholly below or
        above it go to the left or right child.  The tree is built one level
        at a time, each level one set of array passes over the intervals not
        yet placed; a node lists its intervals by ascending low and by
        descending high, ties in input order (two stable sorts, done once).
        """
        count = len(items)
        if not count:
            return None
        node_of = np.empty(count, dtype=np.intp)
        centers: List[float] = []
        links: List[Tuple[int, int]] = []  # per node: (parent node, 1 if right)
        active = np.arange(count)  # the unplaced intervals, in input order
        group = np.zeros(count, dtype=np.intp)  # their node within the level
        level_links = np.array([[-1, 0]])
        while active.size:
            lo, hi = lows[active], highs[active]
            # A level's nodes are numbered left to right, and each lies
            # strictly between two centres above it: sorted by value, the
            # endpoints come out grouped by node, so the two sorts pair up.
            ends = np.sort(np.concatenate((lo, hi)))
            owner = np.sort(np.concatenate((group, group)))
            distinct = np.ones(ends.size, dtype=bool)
            distinct[1:] = ends[1:] != ends[:-1]
            ends, owner = ends[distinct], owner[distinct]
            per_node = np.bincount(owner)
            level_centers = ends[np.cumsum(per_node) - per_node + per_node // 2]
            center = level_centers[group]
            here = (lo <= center) & (center <= hi)
            node_of[active[here]] = len(centers) + group[here]
            below = ~here
            child_keys, group = np.unique(
                2 * group[below] + (lo[below] > center[below]), return_inverse=True
            )
            links.extend(map(tuple, level_links.tolist()))
            level_links = np.stack(
                (len(centers) + child_keys // 2, child_keys % 2), axis=1
            )
            centers.extend(level_centers.tolist())
            active = active[below]
        stops = np.cumsum(np.bincount(node_of, minlength=len(centers))).tolist()
        by_low = list(map(items.__getitem__, np.lexsort((lows, node_of)).tolist()))
        by_high = list(map(items.__getitem__, np.lexsort((-highs, node_of)).tolist()))
        nodes: List[_Node] = []
        start = 0
        for center, stop in zip(centers, stops):
            nodes.append(_Node(center, by_low[start:stop], by_high[start:stop]))
            start = stop
        for node, (parent, right) in zip(nodes[1:], links[1:]):
            if right:
                nodes[parent].right = node
            else:
                nodes[parent].left = node
        return nodes[0]

    def __len__(self) -> int:
        if not self._removed:
            return len(self._tree_intervals) + len(self._pending)
        return len(self.intervals)

    @property
    def intervals(self) -> List[Interval]:
        """The live intervals (tombstoned ones excluded, pending included)."""
        live = [
            interval
            for interval in self._tree_intervals
            if interval.table_id not in self._removed
        ]
        live.extend(self._pending)
        return live

    def intervals_for_tables(self, table_ids: Iterable[str]) -> List[Interval]:
        """The live intervals belonging to the given table ids.

        Used by the append-only snapshot writer (``repro.serving.persistence``)
        to persist only a delta's intervals instead of the whole tree.
        """
        wanted = set(table_ids)
        return [iv for iv in self.intervals if iv.table_id in wanted]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(self, low: float, high: float) -> List[Interval]:
        """Return every live interval overlapping ``[low, high]``.

        Tree hits are filtered against the tombstone set and the pending
        buffer is scanned linearly, so the answer is identical to rebuilding
        from scratch over :attr:`intervals`.
        """
        if low > high:
            low, high = high, low
        if not self._built:
            self.build()
        results: List[Interval] = []
        self._query(self._root, low, high, results)
        if self._removed:
            results = [
                interval for interval in results if interval.table_id not in self._removed
            ]
        for interval in self._pending:
            if interval.overlaps(low, high):
                results.append(interval)
        return results

    def _query(
        self, node: Optional[_Node], low: float, high: float, results: List[Interval]
    ) -> None:
        if node is None:
            return
        if low <= node.center <= high:
            results.extend(node.by_low)
            self._query(node.left, low, high, results)
            self._query(node.right, low, high, results)
            return
        if high < node.center:
            # Only intervals starting at or below ``high`` can overlap.
            for interval in node.by_low:
                if interval.low > high:
                    break
                results.append(interval)
            self._query(node.left, low, high, results)
        else:
            # Only intervals ending at or above ``low`` can overlap.
            for interval in node.by_high:
                if interval.high < low:
                    break
                results.append(interval)
            self._query(node.right, low, high, results)

    def query_table_ids(self, low: float, high: float) -> Set[str]:
        """Ids of tables having at least one column overlapping ``[low, high]``."""
        return {interval.table_id for interval in self.query(low, high)}


def table_intervals(table: Table) -> List[Interval]:
    """One ``[min, max(sum, max)]`` interval per column of ``table``."""
    intervals = []
    for column in table.columns:
        low, high = column.index_interval()
        intervals.append(Interval(float(low), float(high), table.table_id, column.name))
    return intervals


def build_interval_index(tables: Sequence[Table]) -> IntervalTree:
    """Convenience: build the index over a whole repository, every interval
    staged in one list."""
    return IntervalTree(iv for table in tables for iv in table_intervals(table))
