"""Segment-level dataset encoder (Sec. IV-C, extended by Sec. V).

Each surviving column of the candidate table is partitioned into ``N2``
segments of ``P2`` data points.  Each segment is mapped to a ``K``-dimensional
embedding — either by a plain trainable linear projection (base FCM) or by
the data-aggregation pipeline (transformation layers → HMRL → MoE) when the
DA extension is enabled — and then contextualised by a transformer encoder.
The output for a table with ``NC`` surviving columns is
``E_T ∈ R^{NC×N2×K}``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn import Linear, Module, Tensor, TransformerEncoder
from .config import FCMConfig
from .da_layers import DataAggregationEncoder


class SegmentDatasetEncoder(Module):
    """Transformer encoder over per-column data segments."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.segment_projection = Linear(
            config.data_segment_size, config.embed_dim, rng=rng
        )
        self.da_encoder: Optional[DataAggregationEncoder]
        if config.enable_da_layers:
            self.da_encoder = DataAggregationEncoder(config, rng)
        else:
            self.da_encoder = None
        self.encoder = TransformerEncoder(
            embed_dim=config.embed_dim,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            mlp_ratio=config.mlp_ratio,
            dropout=config.dropout,
            max_positions=config.max_data_segments,
            rng=rng,
        )

    def embed_segments(self, segments: np.ndarray) -> Tensor:
        """Per-segment embeddings before the transformer, shape ``(..., K)``."""
        if self.da_encoder is not None:
            return self.da_encoder(segments)
        # The explicit Tensor dtype pins the model's precision even when the
        # ambient policy differs (per-model dtype support).
        return self.segment_projection(
            Tensor(
                np.asarray(segments, dtype=self.config.numeric_dtype),
                dtype=self.config.numeric_dtype,
            )
        )

    def encode_column(self, segments: np.ndarray) -> Tensor:
        """Encode one column's ``(N2, P2)`` segments into ``(N2, K)``."""
        segments = np.asarray(segments, dtype=self.config.numeric_dtype)
        if segments.ndim != 2:
            raise ValueError(
                f"expected (N2, P2) column segments, got shape {segments.shape}"
            )
        embedded = self.embed_segments(segments)
        return self.encoder(embedded)

    def forward(self, table_segments: np.ndarray) -> Tensor:
        """Encode a whole table.

        Parameters
        ----------
        table_segments:
            Array of shape ``(NC, N2, P2)`` from
            :func:`repro.fcm.preprocessing.prepare_table_input`.

        Returns
        -------
        Tensor
            ``E_T`` of shape ``(NC, N2, K)``.
        """
        segments = np.asarray(table_segments, dtype=self.config.numeric_dtype)
        if segments.ndim != 3:
            raise ValueError(
                f"expected (NC, N2, P2) table segments, got shape {segments.shape}"
            )
        if segments.shape[0] == 0:
            raise ValueError("cannot encode a table with zero surviving columns")
        # All columns are encoded in one batched transformer call: the leading
        # axis is treated as a batch dimension, so segments of one column only
        # attend to segments of the same column (Sec. IV-C) while the
        # Python-level op count stays independent of NC.
        lone = segments.shape[0] * segments.shape[1] == 1
        if lone:
            # BLAS sends a one-row product to ``gemv``, whose last bit differs
            # from the ``gemm`` the same row meets inside any larger batch;
            # doubled, a lone segment encodes to the same bits alone or not.
            segments = np.concatenate([segments, segments])
        encoded = self.encoder(self.embed_segments(segments))
        return encoded[:1] if lone else encoded

    def forward_many(self, tables_segments: Sequence[np.ndarray]) -> List[Tensor]:
        """Encode several tables with one :meth:`forward` per distinct ``N2``.

        Columns only ever attend within themselves, so the ``(NC_i, N2_i, P2)``
        blocks of tables with equal ``N2`` concatenate along the column axis
        into one unpadded batch; the result is split back into per-table
        ``(NC_i, N2_i, K)`` tensors.  Nothing is padded and every product's
        rows are position-independent, so a table's encoding is *bitwise* the
        same whichever tables share its call (and matches :meth:`forward` on
        the table alone to floating-point accuracy).  Differentiable: each
        split is a sliced view into the shared graph node, so the batched
        training path reuses this to encode every distinct table of a
        minibatch once.

        Example
        -------
        >>> reprs = encoder.forward_many([input_a.segments, input_b.segments])
        >>> [r.shape for r in reprs]   # [(NC_a, N2_a, K), (NC_b, N2_b, K)]
        """
        arrays = [
            np.asarray(block, dtype=self.config.numeric_dtype)
            for block in tables_segments
        ]
        if not arrays:
            raise ValueError("forward_many needs at least one table")
        p2 = self.config.data_segment_size
        groups: Dict[int, List[int]] = {}
        for index, block in enumerate(arrays):
            if block.ndim != 3 or block.shape[2] != p2:
                raise ValueError(
                    f"expected (NC, N2, {p2}) table segments, got shape {block.shape}"
                )
            if block.shape[0] == 0:
                raise ValueError("cannot encode a table with zero surviving columns")
            groups.setdefault(block.shape[1], []).append(index)
        outputs: List[Optional[Tensor]] = [None] * len(arrays)
        for members in groups.values():
            encoded = self.forward(np.concatenate([arrays[i] for i in members]))
            offset = 0
            for i in members:
                outputs[i] = encoded[offset : offset + len(arrays[i])]
                offset += len(arrays[i])
        return outputs

    # ------------------------------------------------------------------ #
    # Query-time helpers
    # ------------------------------------------------------------------ #
    def column_embeddings(self, table_segments: np.ndarray) -> np.ndarray:
        """Mean-pooled column embeddings, shape ``(NC, K)``.

        Used by the LSH index (Sec. VI-A): each column is represented by the
        average of its segment embeddings.  Computed without gradients.
        """
        encoded = self.forward(table_segments)
        return encoded.numpy().mean(axis=1)

    def moe_gate_weights(self, segments: np.ndarray) -> Optional[np.ndarray]:
        """MoE gate weights for one column (None when DA layers are off)."""
        if self.da_encoder is None:
            return None
        _, gates = self.da_encoder(segments, return_gates=True)
        return gates.numpy()
