"""Random-hyperplane LSH over learned column embeddings (Sec. VI-A).

Every column of every candidate table is represented by the mean of its
segment embeddings from the trained dataset encoder; the sign pattern of the
embedding against ``num_bits`` random hyperplanes is its binary code, and a
table is indexed under the codes of all its columns.  At query time every
extracted line of the chart is embedded the same way (through the line chart
encoder), hashed, and the tables colliding with any line's code — in the same
bucket or within a small Hamming radius — form the candidate set.

Unlike the interval tree, LSH can prune true positives; Table VIII measures
that trade-off (a large speed-up for a small drop in prec@50/ndcg@50).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np


@dataclass
class LSHConfig:
    """LSH parameters.

    Attributes
    ----------
    num_bits:
        Number of random hyperplanes (= code length).  Codes are Python
        integers, so any length works.
    hamming_radius:
        Codes within this Hamming distance of a query code also count as
        collisions (0 = exact bucket match only).
    seed:
        Seed for the random hyperplanes.
    """

    num_bits: int = 12
    hamming_radius: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if self.hamming_radius < 0:
            raise ValueError("hamming_radius must be >= 0")


class RandomHyperplaneLSH:
    """Sign-random-projection LSH index mapping embeddings to table ids.

    ``dtype`` sets the precision of the hyperplane matrix and of the
    projections (``None`` = float64, the historical behaviour): under a
    float32 model the hyperplanes and every hashed embedding stay float32,
    halving the projection bandwidth.  The hyperplane *values* are drawn in
    float64 and rounded, so float32 codes are computed against the same
    hyperplanes a float64 index uses.
    """

    def __init__(
        self,
        embedding_dim: int,
        config: Optional[LSHConfig] = None,
        dtype=None,
    ) -> None:
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        self.config = config or LSHConfig()
        self.embedding_dim = embedding_dim
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        rng = np.random.default_rng(self.config.seed)
        self._hyperplanes = rng.standard_normal(
            (self.config.num_bits, embedding_dim)
        ).astype(self.dtype, copy=False)
        # One dot packs a code; past 64 bits the weights are Python integers.
        self._bit_weights = np.array(
            [1 << shift for shift in reversed(range(self.config.num_bits))],
            dtype=np.uint64 if self.config.num_bits <= 64 else object,
        )
        # Code -> ids and id -> codes.  A set in either is replaced, never
        # edited in place, so an advanced copy shares every one it keeps.
        self._buckets: Dict[int, Set[str]] = {}
        self._codes: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    def hash_vector(self, vector: np.ndarray) -> int:
        """Binary code of ``vector`` packed into an integer."""
        vector = np.asarray(vector, dtype=self.dtype)
        if vector.shape != (self.embedding_dim,):
            raise ValueError(
                f"expected embedding of shape ({self.embedding_dim},), got {vector.shape}"
            )
        return int(self._pack((self._hyperplanes @ vector) >= 0))

    def hash_matrix(self, embeddings: np.ndarray) -> List[int]:
        """The codes of every row of an ``(n, embedding_dim)`` array: one
        product against all hyperplanes and one bit-pack.

        Equal to :meth:`hash_vector` row by row except, in principle, where a
        projection lies within an ulp of zero — the only place the sign could
        depend on whether BLAS took the row through ``gemv`` or ``gemm``.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=self.dtype))
        return self._pack((embeddings @ self._hyperplanes.T) >= 0).tolist()

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """Sign bits ``(..., num_bits)`` → codes, first hyperplane highest."""
        return bits @ self._bit_weights

    @staticmethod
    def hamming_distance(a: int, b: int) -> int:
        return bin(a ^ b).count("1")

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def add(self, table_id: str, embeddings: np.ndarray) -> None:
        """Index ``table_id`` under the codes of its column embeddings.

        Parameters
        ----------
        embeddings:
            Array of shape ``(num_columns, embedding_dim)``.
        """
        self.add_tables([table_id], [embeddings])

    def add_tables(
        self, table_ids: Sequence[str], embeddings: Sequence[np.ndarray]
    ) -> None:
        """:meth:`add` for many tables at once (every write of the query
        processor): ``embeddings[i]`` are the ``(num_columns,
        embedding_dim)`` column embeddings of ``table_ids[i]``, all hashed by
        one :meth:`hash_matrix` product."""
        if not table_ids:
            return
        codes = self.hash_matrix(np.concatenate(embeddings))
        owners = chain.from_iterable(map(repeat, table_ids, map(len, embeddings)))
        joining: Dict[int, Set[str]] = defaultdict(set)
        hashed: Dict[str, Set[int]] = defaultdict(set)
        for code, table_id in zip(codes, owners):
            joining[code].add(table_id)
            hashed[table_id].add(code)
        for held, fresh in ((self._buckets, joining), (self._codes, hashed)):
            for key, values in fresh.items():
                known = held.get(key)
                held[key] = values if known is None else known | values

    def remove(self, table_id: str) -> bool:
        """Drop ``table_id`` from every bucket; returns whether it was indexed.

        Empty buckets are deleted so the post-removal state is identical to
        an index that never saw the table.
        """
        codes = self._codes.pop(table_id, None)
        if codes is None:
            return False
        for code in codes:
            bucket = self._buckets[code] - {table_id}
            if bucket:
                self._buckets[code] = bucket
            else:
                del self._buckets[code]
        return True

    def advanced(
        self, dead: Iterable[str], table_ids: Sequence[str], embeddings: Sequence[np.ndarray]
    ) -> "RandomHyperplaneLSH":
        """A new index: this one without the ``dead`` ids, then with
        ``table_ids`` hashed.  This one is left as it is, sharing the
        hyperplanes and every bucket the write did not touch."""
        lsh = copy.copy(self)
        lsh._buckets, lsh._codes = dict(self._buckets), dict(self._codes)
        for table_id in dead:
            lsh.remove(table_id)
        lsh.add_tables(table_ids, embeddings)
        return lsh

    def export_codes(self) -> Dict[str, List[int]]:
        """Per-table sorted code lists (for parity checks and diagnostics)."""
        return {table_id: sorted(codes) for table_id, codes in self._codes.items()}

    @property
    def buckets(self) -> Dict[int, Set[str]]:
        """A copy of the bucket contents (for parity checks and diagnostics)."""
        return {code: set(table_ids) for code, table_ids in self._buckets.items()}

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    @property
    def indexed_table_ids(self) -> Set[str]:
        return set(self._codes.keys())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_code(self, code: int) -> Set[str]:
        """Tables whose codes collide with ``code`` (within the Hamming radius)."""
        radius = self.config.hamming_radius
        if radius == 0:
            return set(self._buckets.get(code, set()))
        matches: Set[str] = set()
        for bucket_code, table_ids in self._buckets.items():
            if self.hamming_distance(code, bucket_code) <= radius:
                matches.update(table_ids)
        return matches

    def query(self, embeddings: np.ndarray) -> Set[str]:
        """Tables colliding with *any* of the query embeddings (chart lines)."""
        result: Set[str] = set()
        for code in self.hash_matrix(embeddings):
            result.update(self.query_code(code))
        return result
