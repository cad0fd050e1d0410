"""Segment-level line chart encoder (Sec. IV-B).

Each line of the chart is a greyscale image that is divided into ``N1``
segment images of width ``P1``.  Every segment image is flattened and mapped
to a ``K``-dimensional embedding by a trainable linear projection, positional
embeddings are added, and a transformer encoder (Eq. 1) contextualises the
segment sequence.  The output for a chart with ``M`` lines is
``E_V ∈ R^{M×N1×K}``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..nn import Linear, Module, Tensor, TransformerEncoder
from ..nn.transformer import _affine
from .config import FCMConfig


class SegmentLineChartEncoder(Module):
    """ViT-style encoder over line-segment images."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.patch_projection = Linear(
            config.chart_segment_feature_dim, config.embed_dim, rng=rng
        )
        self.encoder = TransformerEncoder(
            embed_dim=config.embed_dim,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            mlp_ratio=config.mlp_ratio,
            dropout=config.dropout,
            max_positions=config.max_chart_segments,
            rng=rng,
        )

    def forward(self, chart_segment_features: np.ndarray) -> Tensor:
        """Encode a whole chart.

        Parameters
        ----------
        chart_segment_features:
            Array of shape ``(M, N1, F1)`` from
            :func:`repro.fcm.preprocessing.prepare_chart_input`.

        Returns
        -------
        Tensor
            ``E_V`` of shape ``(M, N1, K)``.
        """
        # All lines are encoded in one batched transformer call: the attention
        # blocks treat the leading axis as a batch dimension, so lines do not
        # attend to each other (matching the per-line encoding of Sec. IV-B)
        # while the Python-level op count stays independent of M.
        embedded = self.patch_projection(
            Tensor(self._features(chart_segment_features), dtype=self.config.numeric_dtype)
        )
        return self.encoder(embedded)

    def array_forward(self, chart_segment_features: np.ndarray) -> np.ndarray:
        """:meth:`forward` graph-free: ``E_V`` as an ``(M, N1, K)`` array, bitwise
        the no-grad graph's, rejecting what it rejects.  The served query's
        chart encoder (:meth:`FCMScorer.encode_query
        <repro.fcm.scorer.FCMScorer.encode_query>`)."""
        features = self._features(chart_segment_features)
        return self.encoder.array_forward(_affine(features, self.patch_projection))

    def _features(self, chart_segment_features: np.ndarray) -> np.ndarray:
        """The ``(M, N1, F1)`` features in the model's dtype; any other rank
        is a ``ValueError``."""
        features = np.asarray(chart_segment_features, dtype=self.config.numeric_dtype)
        if features.ndim != 3:
            raise ValueError(
                f"expected (M, N1, F1) chart features, got shape {features.shape}"
            )
        return features

    def forward_many(self, charts_segment_features: Sequence[np.ndarray]) -> List[Tensor]:
        """Encode several charts in one stacked transformer call.

        All charts prepared under one :class:`~repro.fcm.config.FCMConfig`
        share the same segment count ``N1`` and feature size ``F1`` (both are
        derived from the chart geometry), so their ``(M_i, N1, F1)`` feature
        blocks concatenate along the line axis into one ``(ΣM_i, N1, F1)``
        batch.  Lines never attend across charts — the transformer treats the
        leading axis as a batch dimension — so the returned per-chart
        ``(M_i, N1, K)`` tensors equal :meth:`forward` on each chart alone,
        while the Python-level op count is independent of the number of
        charts.  Differentiable: the split is a sliced view into the shared
        graph node.

        Example
        -------
        >>> reprs = encoder.forward_many([chart_a.segment_features,
        ...                               chart_b.segment_features])
        >>> [r.shape for r in reprs]      # [(M_a, N1, K), (M_b, N1, K)]
        """
        arrays = [self._features(features) for features in charts_segment_features]
        if not arrays:
            raise ValueError("forward_many needs at least one chart")
        for features in arrays:
            if features.shape[1:] != arrays[0].shape[1:]:
                raise ValueError(
                    "charts prepared under different configs cannot be "
                    f"batch-encoded: {features.shape[1:]} vs {arrays[0].shape[1:]}"
                )
        encoded = self.forward(np.concatenate(arrays, axis=0))
        outputs: List[Tensor] = []
        offset = 0
        for features in arrays:
            outputs.append(encoded[offset : offset + features.shape[0]])
            offset += features.shape[0]
        return outputs
