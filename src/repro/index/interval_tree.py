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

from typing import Iterable, List, NamedTuple, Optional, Sequence, Set

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
        """Index every column of ``table`` by its ``[min, max(sum, max)]`` interval.

        Payloads are coerced to Python floats, so intervals are identical
        whatever precision the column arrays carry (float32 tables hash,
        snapshot and compare exactly like float64 ones).
        """
        self._staged.extend(table_intervals(table))

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
