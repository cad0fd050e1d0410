"""Deterministic synthetic corpora (10² … 10⁶ tables): the tables the
benchmarks serve and the trained fixture (:mod:`repro.bench.fixture`) learns
from.  Unlike :func:`repro.data.corpus.generate_corpus`'s Plotly-like
records, they trade realism for speed plus three properties:

* **O(1) per-table determinism** — :func:`synth_table` depends only on
  ``(config.seed, index)``: not on ``num_tables``, not on generation order.
  Table 7 of a 100-table corpus is value-identical to table 7 of a
  100 000-table corpus, so benchmark artifacts at different scales stay
  comparable and a test can regenerate any single table without the rest.
* **Cluster structure** — tables belong to ``num_clusters`` shape clusters
  (a shared waveform prototype plus per-table warp/jitter), so genuine
  nearest-neighbour structure exists for LSH bucket recall to find, and
  per-cluster value scales spread the column ranges the interval tree
  prunes on.  A flat i.i.d. corpus would make both pruning measurements
  vacuous.
* **Streaming generation** — :func:`synth_tables` yields lazily, so a
  10⁶-table sweep does not need the whole corpus in memory at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from ..charts.spec import ChartSpec
from .column import Column
from .table import Table

if TYPE_CHECKING:
    from ..charts.rasterizer import LineChart

#: Independent seed streams (mixed into the RNG seed sequence) so cluster
#: prototypes, per-table jitter and embedding helpers never share draws.
_CLUSTER_STREAM = 0x5C1
_TABLE_STREAM = 0x7AB
_EMBED_STREAM = 0xE3B


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the deterministic scale corpus.

    Attributes
    ----------
    num_tables:
        Corpus size; only bounds :func:`synth_tables` — individual tables
        exist independently of it.
    num_rows:
        Rows per table (every column shares the length).
    min_columns / max_columns:
        Per-table column count is drawn uniformly from this range.
    num_clusters:
        Number of waveform prototypes; table ``i`` belongs to cluster
        ``i % num_clusters``.
    num_harmonics:
        Sinusoids mixed into each cluster prototype.
    noise_scale:
        Standard deviation of the per-column jitter around the (warped)
        prototype, relative to the prototype's unit amplitude.
    value_scales:
        Value magnitudes cycled over the clusters, so column ranges differ
        across clusters (gives the interval tree real pruning work).
    seed:
        Root seed; every table/cluster derives its own independent stream.
    """

    num_tables: int
    num_rows: int = 96
    min_columns: int = 1
    max_columns: int = 3
    num_clusters: int = 16
    num_harmonics: int = 3
    noise_scale: float = 0.05
    value_scales: Tuple[float, ...] = (1.0, 4.0, 20.0, 100.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tables < 0:
            raise ValueError("num_tables must be >= 0")
        if self.num_rows < 2:
            raise ValueError("num_rows must be >= 2")
        if not 1 <= self.min_columns <= self.max_columns:
            raise ValueError("need 1 <= min_columns <= max_columns")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not self.value_scales:
            raise ValueError("value_scales must not be empty")


@lru_cache(maxsize=4096)
def _cluster_prototype(config: SynthConfig, cluster: int) -> np.ndarray:
    """The cluster's shared unit-amplitude waveform (num_rows,)."""
    rng = np.random.default_rng((config.seed, _CLUSTER_STREAM, cluster))
    t = np.linspace(0.0, 2.0 * np.pi, config.num_rows)
    wave = np.zeros(config.num_rows)
    for harmonic in range(config.num_harmonics):
        amplitude = rng.uniform(0.3, 1.0)
        frequency = int(rng.integers(1, 4)) + harmonic
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave += amplitude * np.sin(frequency * t + phase)
    trend = rng.uniform(-0.5, 0.5)
    wave += trend * np.linspace(0.0, 1.0, config.num_rows)
    peak = np.max(np.abs(wave))
    return wave / peak if peak > 0 else wave


def synth_table(index: int, config: SynthConfig) -> Table:
    """Table ``index`` of the corpus — a pure function of ``(seed, index)``.

    The table is its cluster's prototype waveform, per-column warped
    (amplitude 0.8–1.2×), jittered (``noise_scale``), scaled by the
    cluster's value magnitude and shifted by a per-table offset.  Columns
    of one table are therefore near-duplicates of each other and of their
    cluster siblings — exactly the neighbour structure an LSH bucket
    should group — while clusters differ in both shape and value range.
    """
    if index < 0:
        raise ValueError("table index must be >= 0")
    cluster = index % config.num_clusters
    prototype = _cluster_prototype(config, cluster)
    rng = np.random.default_rng((config.seed, _TABLE_STREAM, index))
    num_columns = int(rng.integers(config.min_columns, config.max_columns + 1))
    scale = config.value_scales[cluster % len(config.value_scales)]
    offset = scale * rng.uniform(-1.0, 1.0)
    columns: List[Column] = []
    for position in range(num_columns):
        warp = rng.uniform(0.8, 1.2)
        jitter = rng.normal(0.0, config.noise_scale, config.num_rows)
        values = scale * (warp * prototype + jitter) + offset + 0.3 * scale * position
        columns.append(Column(f"y{position}", values, role="y"))
    return Table(f"synth_{index:06d}", columns)


def synth_tables(config: SynthConfig) -> Iterator[Table]:
    """Lazily yield the corpus ``synth_table(0..num_tables-1, config)``."""
    for index in range(config.num_tables):
        yield synth_table(index, config)


def synth_query_indices(config: SynthConfig, num_charts: int) -> List[int]:
    """Evenly strided table indices (every cluster gets query coverage)."""
    if num_charts <= 0 or config.num_tables == 0:
        return []
    num_charts = min(num_charts, config.num_tables)
    strided = np.linspace(0, config.num_tables - 1, num_charts)
    return sorted({int(round(i)) for i in strided})


def synth_query_charts(
    config: SynthConfig,
    num_charts: int,
    spec: Optional[ChartSpec] = None,
) -> List[Tuple[int, LineChart]]:
    """``(table index, chart)`` pairs rendered from corpus tables.

    Charts are rasterised from an evenly strided subset of the tables (all
    columns plotted, row index as x), so chart ``i``'s ground-truth answer
    is table ``i`` itself — the scale harness scores retrieval against
    that.  Deterministic like everything else here.
    """
    # The rasteriser imports repro.data, so it is loaded at call time.
    from ..charts.rasterizer import render_chart_for_table

    pairs: List[Tuple[int, LineChart]] = []
    for index in synth_query_indices(config, num_charts):
        table = synth_table(index, config)
        chart = render_chart_for_table(table, table.column_names, spec=spec)
        pairs.append((index, chart))
    return pairs


def clustered_embeddings(
    num_vectors: int,
    embed_dim: int,
    num_clusters: int = 8,
    noise: float = 0.15,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-ish vectors with planted cluster structure, plus cluster labels.

    Vector ``i`` is cluster ``i % num_clusters``'s unit prototype plus
    isotropic Gaussian noise.  This is the embedding-space analogue of the
    table corpus above, used to measure
    :class:`repro.index.lsh.RandomHyperplaneLSH` bucket recall directly:
    cosine-near neighbours demonstrably exist, so a recall regression means
    the hash changed, not that the data had no structure to find.
    Returns ``(vectors (N, K), cluster labels (N,))``.
    """
    if num_vectors < 0:
        raise ValueError("num_vectors must be >= 0")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    rng = np.random.default_rng((seed, _EMBED_STREAM))
    prototypes = rng.normal(size=(num_clusters, embed_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    labels = np.arange(num_vectors, dtype=np.int64) % num_clusters
    vectors = prototypes[labels] + noise * rng.normal(size=(num_vectors, embed_dim))
    return vectors, labels
