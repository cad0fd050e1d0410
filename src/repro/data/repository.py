"""Dataset repository (the "data lake" being searched).

The repository holds candidate tables by id, supports noise-injected
near-duplicates (used by the benchmark's ground-truth construction,
Sec. VII-A) and simple deduplication (the benchmark pipeline drops
near-duplicate Plotly records before splitting).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .column import Column
from .table import Table


class DataRepository:
    """A keyed collection of candidate tables."""

    def __init__(self, tables: Optional[Iterable[Table]] = None) -> None:
        self._tables: Dict[str, Table] = {}
        for table in tables or []:
            self.add(table)

    # ------------------------------------------------------------------ #
    # Container behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __getitem__(self, table_id: str) -> Table:
        return self.get(table_id)

    @property
    def table_ids(self) -> List[str]:
        return list(self._tables.keys())

    @property
    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def add(self, table: Table) -> None:
        if table.table_id in self._tables:
            raise ValueError(f"duplicate table id {table.table_id!r}")
        self._tables[table.table_id] = table

    def get(self, table_id: str) -> Table:
        if table_id not in self._tables:
            raise KeyError(f"repository has no table {table_id!r}")
        return self._tables[table_id]

    def remove(self, table_id: str) -> Table:
        if table_id not in self._tables:
            raise KeyError(f"repository has no table {table_id!r}")
        return self._tables.pop(table_id)

    # ------------------------------------------------------------------ #
    # Benchmark-construction helpers
    # ------------------------------------------------------------------ #
    def inject_noisy_copies(
        self,
        table: Table,
        count: int,
        rng: np.random.Generator,
        noise_low: float = 0.9,
        noise_high: float = 1.1,
        exclude_columns: Optional[Iterable[str]] = None,
    ) -> List[Table]:
        """Create ``count`` noisy near-duplicates of ``table`` and add them.

        Ground-truth generation in Sec. VII-A: for each column (excluding the
        x-axis column), multiply element-wise by a vector drawn from
        ``U(0.9, 1.1)``.
        """
        excluded = set(exclude_columns or [])
        copies: List[Table] = []
        for i in range(count):
            columns: List[Column] = []
            for column in table.columns:
                if column.name in excluded:
                    columns.append(
                        Column(column.name, column.values.copy(), role=column.role)
                    )
                    continue
                sigma = rng.uniform(noise_low, noise_high, size=len(column))
                columns.append(
                    Column(column.name, column.values * sigma, role=column.role)
                )
            copy = Table(f"{table.table_id}::noisy{i}", columns)
            self.add(copy)
            copies.append(copy)
        return copies

    def deduplicate(self, tolerance: float = 1e-9) -> int:
        """Drop tables that are near-duplicates of an earlier table.

        Two tables are near-duplicates when they have identical shape and
        column names and every value agrees within ``tolerance`` (relative).
        Returns the number of tables removed.
        """
        kept: List[Table] = []
        removed = 0
        signatures: List[Tuple[Tuple[str, ...], int]] = []
        for table in list(self._tables.values()):
            signature = (tuple(table.column_names), table.num_rows)
            duplicate_of = None
            for candidate, sig in zip(kept, signatures):
                if sig != signature:
                    continue
                if np.allclose(
                    candidate.numeric_matrix(), table.numeric_matrix(), rtol=tolerance
                ):
                    duplicate_of = candidate
                    break
            if duplicate_of is None:
                kept.append(table)
                signatures.append(signature)
            else:
                del self._tables[table.table_id]
                removed += 1
        return removed

    def summary(self) -> Dict[str, float]:
        """Basic statistics over the repository (used by Table I reporting)."""
        if not self._tables:
            return {"tables": 0, "avg_columns": 0.0, "avg_rows": 0.0}
        cols = [t.num_columns for t in self._tables.values()]
        rows = [t.num_rows for t in self._tables.values()]
        return {
            "tables": len(self._tables),
            "avg_columns": float(np.mean(cols)),
            "avg_rows": float(np.mean(rows)),
            "max_columns": float(np.max(cols)),
            "max_rows": float(np.max(rows)),
        }
