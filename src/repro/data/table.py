"""Table (dataset) abstraction and the data-series container used by charts.

Terminology follows Sec. II of the paper:

* a **Table** ``T`` is a collection of named numeric columns;
* the **underlying data** ``D`` of a line chart is a set of data series
  ``d = (p1, ..., p_Nd)``, one per line, where each point is an ``(x, y)``
  pair; all series share the same x values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .column import Column


@dataclass
class DataSeries:
    """One data series of the underlying data ``D`` (one line of a chart)."""

    x: np.ndarray
    y: np.ndarray
    name: str = ""
    source_column: Optional[str] = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("data series x and y must be 1-D")
        if x.shape != y.shape:
            raise ValueError(
                f"data series x and y must have the same length, got {x.shape} vs {y.shape}"
            )
        if x.size == 0:
            raise ValueError("data series must not be empty")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.y.shape[0])

    @property
    def y_range(self) -> Tuple[float, float]:
        return float(self.y.min()), float(self.y.max())


@dataclass
class UnderlyingData:
    """The underlying data ``D`` of a line chart: one series per line."""

    series: List[DataSeries]

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("underlying data must contain at least one series")

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[DataSeries]:
        return iter(self.series)

    def __getitem__(self, index: int) -> DataSeries:
        return self.series[index]

    @property
    def num_lines(self) -> int:
        return len(self.series)

    @property
    def y_range(self) -> Tuple[float, float]:
        lows, highs = zip(*(s.y_range for s in self.series))
        return min(lows), max(highs)


class Table:
    """A dataset: an ordered collection of uniquely named numeric columns."""

    def __init__(self, table_id: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise ValueError("a table must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {table_id!r}: {names}")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ValueError(
                f"all columns of table {table_id!r} must have the same length, got {lengths}"
            )
        self.table_id = table_id
        self._columns: Dict[str, Column] = {c.name: c for c in columns}
        self._order: List[str] = names

    # ------------------------------------------------------------------ #
    # Container behaviour
    # ------------------------------------------------------------------ #
    @property
    def num_columns(self) -> int:
        return len(self._order)

    @property
    def num_rows(self) -> int:
        return len(self._columns[self._order[0]])

    @property
    def column_names(self) -> List[str]:
        return list(self._order)

    @property
    def columns(self) -> List[Column]:
        return [self._columns[name] for name in self._order]

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.table_id == other.table_id
            and self._order == other._order
            and all(self._columns[n] == other._columns[n] for n in self._order)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Table(id={self.table_id!r}, columns={self.num_columns}, rows={self.num_rows})"
        )

    def column(self, name: str) -> Column:
        if name not in self._columns:
            raise KeyError(f"table {self.table_id!r} has no column {name!r}")
        return self._columns[name]

    def column_at(self, index: int) -> Column:
        return self._columns[self._order[index]]

    def numeric_matrix(self) -> np.ndarray:
        """Return all columns stacked into an ``(NC, NR)`` array."""
        return np.stack([c.values for c in self.columns])

    # ------------------------------------------------------------------ #
    # Derived tables
    # ------------------------------------------------------------------ #
    def select(self, names: Iterable[str], table_id: Optional[str] = None) -> "Table":
        """Project onto the given column names (order preserved)."""
        return Table(table_id or self.table_id, [self.column(n) for n in names])

    def filter_columns_by_range(
        self, low: float, high: float, tolerance: float = 0.0
    ) -> List[Column]:
        """Return the columns whose value range overlaps ``[low, high]``.

        This is the y-tick based column filtering step of Sec. IV-C: only
        columns that could plausibly produce values inside the chart's y-axis
        range are worth encoding.
        """
        if low > high:
            low, high = high, low
        pad = tolerance * max(abs(low), abs(high), 1.0)
        selected = []
        for column in self.columns:
            c_low, c_high = column.value_range()
            if c_high >= low - pad and c_low <= high + pad:
                selected.append(column)
        return selected

    def to_underlying_data(
        self,
        y_columns: Sequence[str],
        x_column: Optional[str] = None,
    ) -> UnderlyingData:
        """Build underlying data ``D`` from a column-pair selection (Sec. II).

        Each entry in ``y_columns`` becomes one data series; ``x_column`` is
        shared by all series and defaults to the implicit index ``1..NR``.
        """
        if not y_columns:
            raise ValueError("at least one y column is required")
        if x_column is not None:
            x_values = self.column(x_column).values
        else:
            x_values = np.arange(1, self.num_rows + 1, dtype=np.float64)
        series = [
            DataSeries(
                x=x_values,
                y=self.column(name).values,
                name=name,
                source_column=name,
            )
            for name in y_columns
        ]
        return UnderlyingData(series=series)
