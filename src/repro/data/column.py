"""Numeric column abstraction.

A dataset in the paper is "a table of ``NC`` columns", where each column is a
data series ``C = (a1, ..., a_NR)`` (Sec. II).  This module provides a small
value type wrapping a 1-D float array with the statistics needed elsewhere in
the system (value range for the interval-tree index, summary statistics for
the corpus generator and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np


@dataclass
class Column:
    """A named numeric data series.

    Parameters
    ----------
    name:
        Column name (unique within its table).
    values:
        The data series; any 1-D array-like of finite floats.
    role:
        Optional semantic role hint; ``"x"`` marks a column the corpus
        generator intends as an x-axis (time/index), ``"y"`` a plottable
        measure.  The discovery pipeline itself never relies on the hint.
    """

    name: str
    values: np.ndarray
    role: Optional[str] = None
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"column {self.name!r} must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError(f"column {self.name!r} must not be empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"column {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_values", arr)

    # ------------------------------------------------------------------ #
    # Basic container behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterable[float]:
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.name, self.values.tobytes()))

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def value_range(self) -> Tuple[float, float]:
        """Return ``(min, max)`` of the raw values."""
        return self.min, self.max

    def index_interval(self) -> Tuple[float, float]:
        """Return the interval used by the interval-tree index (Sec. VI-A).

        The paper indexes each column by ``[min(C), sum(C)]`` — the extreme
        values any aggregation (min .. sum) of the column could reach.  When a
        column contains negative values a windowed sum can drop below the raw
        minimum, so the lower bound also considers the sum.
        """
        low = min(self.min, self.total)
        high = max(self.max, self.total)
        return low, high

    # ------------------------------------------------------------------ #
    # Transformations (return new columns; columns are treated as immutable)
    # ------------------------------------------------------------------ #
    def renamed(self, name: str) -> "Column":
        return Column(name=name, values=self.values.copy(), role=self.role)

    def with_values(self, values: np.ndarray, suffix: str = "") -> "Column":
        return Column(name=self.name + suffix, values=values, role=self.role)

    def reversed(self) -> "Column":
        """Reverse augmentation of Sec. IV-A."""
        return self.with_values(self.values[::-1].copy(), suffix="_rev")

    def partitioned(self, position: int) -> Tuple["Column", "Column"]:
        """Partition augmentation of Sec. IV-A: split at ``position``."""
        if not 0 < position < len(self):
            raise ValueError(
                f"partition position must be in (0, {len(self)}), got {position}"
            )
        left = Column(self.name + "_p1", self.values[:position].copy(), role=self.role)
        right = Column(self.name + "_p2", self.values[position:].copy(), role=self.role)
        return left, right

    def down_sampled(self, ratio: int) -> "Column":
        """Down-sampling augmentation of Sec. IV-A: keep 1 of every ``ratio``."""
        if ratio < 1:
            raise ValueError("down-sampling ratio must be >= 1")
        return self.with_values(self.values[::ratio].copy(), suffix=f"_ds{ratio}")
