"""Data-aggregation layers of the extended FCM (Sec. V).

Three layers are added to the dataset encoder so that charts rendered from
*aggregated* data can still be matched against the original tables:

* :class:`TransformationLayer` — one two-layer MLP per aggregation operator
  (avg, sum, max, min) plus one for the identity (non-aggregated) case; each
  learns how its operator transforms raw data (Sec. V-B).
* :class:`HierarchicalMultiScaleLayer` (HMRL) — a binary tree over the
  ``2**beta`` sub-segments of a data segment.  Parents combine their children
  with an MLP, so the root mixes information from window sizes
  ``sub_segment_size, 2·sub_segment_size, …, P2`` (Sec. V-C).
* :class:`MixtureOfExpertsLayer` — a gating network that infers which
  aggregation operator (expert) most likely produced the chart and blends the
  experts' root representations accordingly (Sec. V-D).

:class:`DataAggregationEncoder` wires the three together: it turns the raw
``(N2, P2)`` segments of one column into ``(N2, K)`` segment embeddings that
replace the plain linear projection of the base dataset encoder.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..data.aggregation import ALL_OPERATORS
from ..nn import MLP, Linear, Module, ModuleList, ParameterVersion, Tensor
from ..nn import array_softmax, concatenate, linear, stack
from .config import FCMConfig


class TransformationLayer(Module):
    """Two-layer MLP modelling one aggregation operator's transformation."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator, operator: str) -> None:
        super().__init__()
        self.operator = operator
        hidden = max(config.embed_dim, config.sub_segment_size)
        self.mlp = MLP(
            in_features=config.sub_segment_size,
            hidden_features=[hidden],
            out_features=config.embed_dim,
            activation="relu",
            rng=rng,
        )

    def forward(self, sub_segments: Tensor) -> Tensor:
        """Map ``(..., sub_segment_size)`` values to ``(..., K)`` embeddings."""
        return self.mlp(sub_segments)


class HierarchicalMultiScaleLayer(Module):
    """HMRL: combine ``2**beta`` leaf embeddings up a binary tree.

    Every internal node applies a shared-per-level MLP to the concatenation
    of its two children, so the root representation integrates information
    from every scale between the leaf sub-segment and the full segment.
    """

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.beta = config.beta
        self.combiners = ModuleList(
            [
                MLP(
                    in_features=2 * config.embed_dim,
                    hidden_features=[config.embed_dim],
                    out_features=config.embed_dim,
                    activation="relu",
                    rng=rng,
                )
                for _ in range(config.beta)
            ]
        )

    def forward(self, leaves: Tensor) -> Tensor:
        """Reduce ``(..., 2**beta, K)`` leaf embeddings to ``(..., K)`` roots."""
        current = leaves
        num_nodes = current.shape[-2]
        if num_nodes != 2 ** self.beta:
            raise ValueError(
                f"expected {2 ** self.beta} leaves, got {num_nodes}"
            )
        for level in range(self.beta):
            # Siblings are adjacent along the tree axis, so concatenating
            # each (left, right) pair is a reshape of the contiguous array.
            paired = current.reshape(*current.shape[:-2], -1, 2 * current.shape[-1])
            current = self.combiners[level](paired)
        # A single node remains along the tree axis; drop that axis.
        return current.squeeze(axis=-2)


class MixtureOfExpertsLayer(Module):
    """Gating over the per-operator experts (Sec. V-D).

    The gate for expert ``i`` scores that expert's own root representation
    with two fully connected layers (LeakyReLU between them); a softmax over
    the expert scores yields the blending weights.
    """

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_experts = config.num_experts
        self.gate_hidden = ModuleList(
            [Linear(config.embed_dim, config.embed_dim, rng=rng) for _ in range(self.num_experts)]
        )
        self.gate_out = ModuleList(
            [Linear(config.embed_dim, 1, rng=rng) for _ in range(self.num_experts)]
        )

    def forward(self, expert_roots: Tensor) -> Tuple[Tensor, Tensor]:
        """Blend expert roots into the final representation.

        Every gate runs in one expert-stacked pass: the hidden layers are one
        batched product against the stacked ``(num_experts, K, K)`` weights,
        and the one-unit output layers a multiply-and-sum over ``K`` — a row's
        score is then the same bits whatever shares its batch, which a
        ``(rows, K) @ (K, 1)`` product (BLAS ``gemv``) does not promise.

        Parameters
        ----------
        expert_roots:
            Tensor of shape ``(num_experts, ..., K)``.

        Returns
        -------
        (blended, gates):
            ``blended`` has shape ``(..., K)``; ``gates`` has shape
            ``(..., num_experts)`` and sums to one over the last axis.
        """
        experts, *lead, dim = expert_roots.shape
        roots = expert_roots.reshape(experts, -1, dim)
        hidden = linear(
            roots,
            stack([gate.weight for gate in self.gate_hidden]),
            stack([gate.bias for gate in self.gate_hidden]).expand_dims(1),
        ).leaky_relu()
        out_weight = stack([gate.weight for gate in self.gate_out]).swapaxes(1, 2)
        scores = (hidden * out_weight).sum(axis=-1) + stack(
            [gate.bias for gate in self.gate_out]
        )
        gates = scores.softmax(axis=0)  # (num_experts, rows)
        blended = (roots * gates.expand_dims(-1)).sum(axis=0)
        return (
            blended.reshape(*lead, dim),
            gates.transpose().reshape(*lead, experts),
        )


class DataAggregationEncoder(Module):
    """Full DA pipeline: raw segments → MoE-blended segment embeddings."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.transformations = ModuleList(
            [TransformationLayer(config, rng, operator) for operator in ALL_OPERATORS]
        )
        self.hmrl = HierarchicalMultiScaleLayer(config, rng)
        self.moe = MixtureOfExpertsLayer(config, rng)
        self._weights_version = ParameterVersion(self)
        self._folded: Optional[tuple] = None  # (weights version, _fold()), replaced whole

    def forward(self, segments: np.ndarray, return_gates: bool = False):
        """Encode data segments of shape ``(..., P2)``.

        The leading axes are arbitrary (e.g. ``(N2,)`` for one column or
        ``(NC, N2)`` for a whole table); the output replaces the trailing
        ``P2`` axis by ``K`` — i.e. ``(..., K)`` segment embeddings (and
        optionally the MoE gate weights of shape ``(..., num_experts)``).
        """
        segments = np.asarray(segments, dtype=self.config.numeric_dtype)
        if segments.ndim < 2 or segments.shape[-1] != self.config.data_segment_size:
            raise ValueError(
                f"expected (..., {self.config.data_segment_size}) segments, "
                f"got shape {segments.shape}"
            )
        # The experts are stacked, not looped: their first layers are one
        # (rows, sub_segment) @ (sub_segment, experts * hidden) product, their
        # second layers one batched product, and the shared HMRL combiners and
        # the MoE gates run once over the expert-stacked batch.
        lead, experts = segments.shape[:-1], len(self.transformations)
        first = [t.mlp.layers[0] for t in self.transformations]
        second = [t.mlp.layers[1] for t in self.transformations]
        sub_tensor = Tensor(
            segments.reshape(-1, self.config.sub_segment_size),
            dtype=self.config.numeric_dtype,
        )
        hidden = linear(
            sub_tensor,
            concatenate([layer.weight for layer in first], axis=1),
            concatenate([layer.bias for layer in first], axis=0),
        ).relu()
        hidden = hidden.reshape(len(sub_tensor), experts, -1).transpose(1, 0, 2)
        leaves = linear(
            hidden,
            stack([layer.weight for layer in second]),
            stack([layer.bias for layer in second]).expand_dims(1),
        )  # (experts, rows * 2**beta, K)
        roots = self.hmrl(leaves.reshape(-1, 2 ** self.config.beta, leaves.shape[-1]))
        blended, gates = self.moe(roots.reshape(experts, *lead, roots.shape[-1]))
        if return_gates:
            return blended, gates
        return blended

    def folded_forward(self, segments: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s embeddings of ``(..., P2)`` segments, graph-free:
        the experts' second layers folded into HMRL level 0's first, each
        level's output layer into the next level's first, and the last one
        into the MoE gates' hidden layers (and applied once after the blend,
        as the gates sum to one).  The index build's DA forward; its one
        caller, :meth:`SegmentDatasetEncoder.array_forward
        <repro.fcm.dataset_encoder.SegmentDatasetEncoder.array_forward>`, is
        handed prepared groups.  The gate scores stay a multiply-and-sum: no
        row's bits depend on its batch."""
        segments = np.asarray(segments, dtype=self.config.numeric_dtype)
        version, folded = self._weights_version(), self._folded
        if folded is None or folded[0] != version:  # threads may race: same weights
            folded = self._folded = (version, self._fold())
        first, levels, gate, gate_out, root = folded[1]
        experts = len(self.transformations)
        # Expert-major from the start, (experts, rows * 2**beta, hidden); the
        # first layers' bias rides in a ones column (a broadcast add costs more).
        rows = segments.reshape(-1, self.config.sub_segment_size)
        current = np.concatenate([rows, np.ones_like(rows[:, :1])], axis=1) @ first
        np.maximum(current, 0.0, out=current)
        for weight, bias in levels:  # siblings side by side, as forward pairs them
            current = current.reshape(experts, -1, weight.shape[-2]) @ weight
            current += bias
            np.maximum(current, 0.0, out=current)
        hidden = current @ gate[0]
        hidden += gate[1]
        np.maximum(hidden, 0.01 * hidden, out=hidden)  # leaky_relu
        scores = (hidden * gate_out[0]).sum(axis=-1, dtype=np.float64).astype(hidden.dtype)
        scores += gate_out[1]
        gates = array_softmax(scores, axis=0)  # over the experts
        blended = (current * gates[..., None]).sum(axis=0, dtype=np.float64)
        out = blended.astype(current.dtype, copy=False) @ root[0]
        out += root[1]
        return out.reshape(*segments.shape[:-1], out.shape[-1])

    def _fold(self) -> tuple:
        """The ``(weight, bias)`` maps :meth:`folded_forward` applies, from the
        live parameters: the first transformation layers, one pair layer per
        HMRL level, the gates' hidden and output layers, the root's layer."""

        def stacked(layers):
            weights, biases = zip(*((layer.weight.data, layer.bias.data) for layer in layers))
            return np.stack(weights), np.stack(biases)[:, None]

        def into_pair_layer(weight, bias, layer):
            w, k = layer.weight.data, layer.weight.shape[0] // 2
            return (
                np.concatenate([weight @ w[:k], weight @ w[k:]], axis=-2),
                bias @ (w[:k] + w[k:]) + layer.bias.data,
            )

        combiners = [mlp.layers for mlp in self.hmrl.combiners]
        second = stacked([t.mlp.layers[1] for t in self.transformations])
        levels = [into_pair_layer(*second, combiners[0][0])]
        for (_, output), (pair_layer, _) in zip(combiners, combiners[1:]):
            levels.append(into_pair_layer(output.weight.data, output.bias.data, pair_layer))
        root = combiners[-1][1]
        gate_weight, gate_bias = stacked(self.moe.gate_hidden)
        out_weight, out_bias = stacked(self.moe.gate_out)
        return (
            np.concatenate(stacked([t.mlp.layers[0] for t in self.transformations]), axis=1),
            levels,
            (root.weight.data @ gate_weight, root.bias.data[None] @ gate_weight + gate_bias),
            (out_weight.swapaxes(1, 2), out_bias[:, 0]),
            (root.weight.data.copy(), root.bias.data.copy()),
        )
