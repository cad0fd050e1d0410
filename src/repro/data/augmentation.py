"""Chart-preserving data augmentation (Sec. IV-A), used by the LineNet baselines.

Conventional image augmentations (flips, crops) distort the semantics of a
chart — a vertically flipped chart lies about its data.  The paper instead
augments the *tabular* data from which charts are rendered:

* **Reverse** — reverse every column;
* **Partitioning** — split every column at a random position into two;
* **Down-sampling** — keep one of every ``ρ`` points.

Each augmented table is re-rendered into a fresh chart, so the augmented
examples remain faithful line charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .column import Column
from .table import Table


@dataclass
class AugmentationConfig:
    """Which augmentations to apply and their parameters."""

    reverse: bool = True
    partition: bool = True
    down_sample: bool = True
    down_sample_ratios: Sequence[int] = field(default_factory=lambda: (2, 4))
    min_partition_size: int = 8

    def enabled(self) -> List[str]:
        names = []
        if self.reverse:
            names.append("reverse")
        if self.partition:
            names.append("partition")
        if self.down_sample:
            names.append("down_sample")
        return names


def reverse_table(table: Table) -> Table:
    """Apply the reverse augmentation to every column of ``table``."""
    columns = [c.reversed().renamed(c.name) for c in table.columns]
    return Table(f"{table.table_id}::rev", columns)


def partition_table(table: Table, position: int) -> List[Table]:
    """Split every column of ``table`` at ``position`` into two tables."""
    if not 0 < position < table.num_rows:
        raise ValueError(
            f"partition position must be in (0, {table.num_rows}), got {position}"
        )
    left_cols, right_cols = [], []
    for column in table.columns:
        left, right = column.partitioned(position)
        left_cols.append(left.renamed(column.name))
        right_cols.append(right.renamed(column.name))
    return [
        Table(f"{table.table_id}::part1", left_cols),
        Table(f"{table.table_id}::part2", right_cols),
    ]


def down_sample_table(table: Table, ratio: int) -> Table:
    """Keep one of every ``ratio`` rows of ``table``."""
    columns = [c.down_sampled(ratio).renamed(c.name) for c in table.columns]
    return Table(f"{table.table_id}::ds{ratio}", columns)


def augment_table(
    table: Table,
    config: Optional[AugmentationConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[Table]:
    """Produce the augmented variants of ``table`` per the configuration.

    The original table is *not* included in the returned list.
    """
    config = config or AugmentationConfig()
    rng = rng or np.random.default_rng()
    augmented: List[Table] = []
    if config.reverse:
        augmented.append(reverse_table(table))
    if config.partition and table.num_rows >= 2 * config.min_partition_size:
        low = config.min_partition_size
        high = table.num_rows - config.min_partition_size
        position = int(rng.integers(low, high + 1))
        augmented.extend(partition_table(table, position))
    if config.down_sample:
        for ratio in config.down_sample_ratios:
            if table.num_rows // ratio >= config.min_partition_size:
                augmented.append(down_sample_table(table, ratio))
    return augmented
