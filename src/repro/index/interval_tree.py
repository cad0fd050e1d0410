"""Interval index over column value ranges (Sec. VI-A).

Each column ``C`` of each candidate table is indexed by the interval
``[min(C), sum(C)]`` — the extreme values any of the supported aggregations
of the column could produce.  At query time the y-axis range extracted from
the chart is used as an overlap query; every table with at least one
overlapping column survives.  The index never prunes a true positive (a
property the tests verify), so retrieval quality is identical to a linear
scan while the candidate set shrinks.

The paper keeps the intervals in an interval tree so that a stab costs
O(log n + k).  Here k is close to n — nearly every column overlaps a chart's
y range — so the live intervals are kept as parallel row arrays (lows,
highs, table ids, column names) and a query is one overlap test over every
row.  Adds are staged and appended with one ``concatenate`` on the next
read; a remove is one boolean compress.  Every answer is exactly the
brute-force scan of the live intervals, whatever the sequence of writes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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


class IntervalTree:
    """The live intervals as row arrays, answering overlap queries exactly.

    Rows are kept in insertion order: :meth:`intervals` and :meth:`query`
    list them in that order, and a removed table's rows leave no trace.
    """

    def __init__(self, intervals: Optional[Iterable[Interval]] = None) -> None:
        self._lows = np.empty(0, dtype=np.float64)
        self._highs = np.empty(0, dtype=np.float64)
        self._tables = np.empty(0, dtype=object)
        self._columns = np.empty(0, dtype=object)
        self._staged: List[Interval] = list(intervals or [])
        self.build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, interval: Interval) -> None:
        """Add an interval (appended to the rows on the next read)."""
        self._staged.append(interval)

    def add_table(self, table: Table) -> None:
        """Index every column of ``table`` by its ``[min, max(sum, max)]``
        interval (:func:`table_bounds` of the one table, as Python floats)."""
        lows, highs, table_ids, names = table_bounds([table])
        self._staged.extend(map(Interval._make, zip(lows.tolist(), highs.tolist(), table_ids, names)))

    def replace_table(self, table: Table) -> None:
        """Refresh every interval of ``table`` (streaming ingest).

        ``remove_table`` followed by ``add_table`` — the idiom of the
        windowed streaming path, where a partially filled tail window is
        re-encoded on every append batch and its (segment-id) intervals must
        track the new content.
        """
        self.remove_table(table.table_id)
        self.add_table(table)

    def remove_table(self, table_id: str) -> int:
        """Drop every interval of ``table_id``; returns how many were removed."""
        self.build()
        keep = self._tables != table_id
        removed = keep.size - int(np.count_nonzero(keep))
        if removed:
            self._lows, self._highs = self._lows[keep], self._highs[keep]
            self._tables, self._columns = self._tables[keep], self._columns[keep]
        return removed

    def build(self) -> "IntervalTree":
        """Append the staged intervals to the rows."""
        if self._staged:
            lows, highs, tables, columns = zip(*self._staged)
            self._staged = []
            self._lows = np.concatenate((self._lows, np.array(lows, dtype=np.float64)))
            self._highs = np.concatenate((self._highs, np.array(highs, dtype=np.float64)))
            self._tables = np.concatenate((self._tables, np.array(tables, dtype=object)))
            self._columns = np.concatenate((self._columns, np.array(columns, dtype=object)))
        return self

    @classmethod
    def from_arrays(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        table_ids: Sequence[str],
        column_names: Sequence[str],
    ) -> "IntervalTree":
        """The index over intervals given as parallel columns (snapshot
        restore).  The bounds are not checked one by one: they must satisfy
        ``lows <= highs``, which the caller validates in bulk."""
        tree = cls()
        tree._lows = np.array(lows, dtype=np.float64)
        tree._highs = np.array(highs, dtype=np.float64)
        tree._tables = np.array(table_ids, dtype=object)
        tree._columns = np.array(column_names, dtype=object)
        return tree

    def __len__(self) -> int:
        return self._lows.size + len(self._staged)

    def _rows(self, rows) -> List[Interval]:
        """The intervals at ``rows`` (an index or a mask), in row order."""
        columns = (self._lows, self._highs, self._tables, self._columns)
        return list(map(Interval._make, zip(*(c[rows].tolist() for c in columns))))

    @property
    def intervals(self) -> List[Interval]:
        """The live intervals, in row order."""
        return self.build()._rows(slice(None))

    def intervals_for_tables(self, table_ids: Iterable[str]) -> List[Interval]:
        """The live intervals belonging to the given table ids.

        Used by the append-only snapshot writer (``repro.serving.persistence``)
        to persist only a delta's intervals instead of the whole index.
        """
        wanted = set(table_ids).__contains__
        self.build()
        return self._rows(np.fromiter(map(wanted, self._tables), bool, self._tables.size))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _overlapping(self, low: float, high: float) -> np.ndarray:
        """The row mask of the live intervals overlapping ``[low, high]``."""
        if low > high:
            low, high = high, low
        self.build()
        return (self._highs >= low) & (self._lows <= high)

    def query(self, low: float, high: float) -> List[Interval]:
        """Every live interval overlapping ``[low, high]``, in row order."""
        return self._rows(self._overlapping(low, high))

    def query_table_ids(self, low: float, high: float) -> Set[str]:
        """Ids of tables having at least one column overlapping ``[low, high]``."""
        rows = self._overlapping(low, high)  # folds staged rows into _tables first
        return set(self._tables[rows].tolist())


def table_bounds(tables: Sequence[Table]) -> Tuple[np.ndarray, np.ndarray, List[str], List[str]]:
    """``(lows, highs, table ids, column names)`` of every column of ``tables``,
    in table and column order: each column's ``[min, max(sum, max)]``
    interval, bit for bit ``Column.index_interval``.

    One row ``min`` / ``max`` / ``sum`` pass per column length (a row sum is
    the column's own ``sum``); the bounds follow Python's ``min`` / ``max``
    rule — the sum wins only when strictly beyond — so a signed zero or a
    NaN sum picks what the column picks.
    """
    rows = [(table.table_id, column) for table in tables for column in table.columns]
    by_length: Dict[int, List[int]] = {}
    for row, (_, column) in enumerate(rows):
        by_length.setdefault(len(column), []).append(row)
    lows, highs = np.empty(len(rows)), np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow
        for members in by_length.values():
            for start in range(0, len(members), 256):  # a bounded stack at a time
                block = members[start : start + 256]
                matrix = np.array([rows[row][1].values for row in block])
                mn, mx, total = matrix.min(axis=1), matrix.max(axis=1), matrix.sum(axis=1)
                lows[block] = np.where(total < mn, total, mn)
                highs[block] = np.where(total > mx, total, mx)
    return lows, highs, [table_id for table_id, _ in rows], [column.name for _, column in rows]


def build_interval_index(tables: Sequence[Table]) -> IntervalTree:
    """The index over a whole repository: :func:`table_bounds` of every
    table, handed to :meth:`IntervalTree.from_arrays`."""
    return IntervalTree.from_arrays(*table_bounds(tables))
