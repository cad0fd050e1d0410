"""Transformer encoder stack used by both segment-level encoders.

Eq. 1 in the paper describes a pre-norm transformer: each block applies

    u' = MSA(LN(u)) + u
    u  = MLP(LN(u')) + u'

This module implements exactly that block (:class:`TransformerEncoderLayer`)
and a stack of ``J`` such blocks (:class:`TransformerEncoder`), together with
the learnable positional embedding that is added to the input sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .attention import MultiHeadSelfAttention
from .layers import Dropout, LayerNorm, Linear, PositionalEmbedding
from .module import Module, ModuleList
from .tensor import Tensor, array_gelu, array_softmax


def _affine(x: np.ndarray, layer: Linear) -> np.ndarray:
    """``linear``'s no-grad branch: the leading axes folded into one GEMM's
    rows, the bias added into the fresh product."""
    out = x.reshape(-1, x.shape[-1]) @ layer.weight.data
    out += layer.bias.data
    return out.reshape(*x.shape[:-1], out.shape[-1])


class FeedForward(Module):
    """Position-wise two-layer feed-forward network with GELU activation."""

    def __init__(
        self,
        embed_dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        x = self.fc1(x).gelu()
        if self.dropout is not None:
            x = self.dropout(x)
        return self.fc2(x)


class TransformerEncoderLayer(Module):
    """A single pre-norm transformer encoder block (one line of Eq. 1)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 2.0,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(embed_dim, num_heads, dropout=dropout, rng=rng)
        self.norm2 = LayerNorm(embed_dim)
        self.ffn = FeedForward(embed_dim, int(embed_dim * mlp_ratio), dropout=dropout, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = self.attn(self.norm1(x), mask=mask) + x
        x = self.ffn(self.norm2(x)) + x
        return x


class TransformerEncoder(Module):
    """A stack of ``num_layers`` pre-norm transformer blocks.

    Parameters
    ----------
    embed_dim:
        Embedding size ``K`` in the paper (768 in the paper's configuration,
        reduced by default in this reproduction).
    num_heads:
        Number of attention heads.
    num_layers:
        ``J`` in Eq. 1.
    max_positions:
        Maximum sequence length for the learnable positional embedding;
        ``None`` disables positional embeddings (used when the caller adds
        its own).
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        num_layers: int,
        mlp_ratio: float = 2.0,
        dropout: float = 0.0,
        max_positions: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.embed_dim = embed_dim
        self.pos_embedding = (
            PositionalEmbedding(max_positions, embed_dim, rng=rng)
            if max_positions is not None
            else None
        )
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(
                    embed_dim, num_heads, mlp_ratio=mlp_ratio, dropout=dropout, rng=rng
                )
                for _ in range(num_layers)
            ]
        )
        self.final_norm = LayerNorm(embed_dim)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode a sequence of shape ``(seq, embed_dim)`` or batched."""
        if self.pos_embedding is not None:
            x = self.pos_embedding(x)
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)

    def array_forward(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` of a ``(batch, seq, embed_dim)`` array in eval mode,
        unmasked and graph-free: the no-grad graph's steps one for one, so its
        bits.  The encoders' ``array_forward`` methods (the index build, the
        served query) call it; they validate the shape."""
        if self.pos_embedding is not None:
            seq = self.pos_embedding._checked_length(x.shape[-2])
            x = x + self.pos_embedding.weight.data[:seq]
        batch, seq, _ = x.shape
        for layer in self.layers:
            attn = layer.attn
            normed = layer.norm1._normalize(x)
            q, k, v = (
                _affine(normed, projection)
                .reshape(batch, seq, attn.num_heads, attn.head_dim)
                .transpose(0, 2, 1, 3)
                for projection in (attn.q_proj, attn.k_proj, attn.v_proj)
            )
            scores = q @ k.swapaxes(-1, -2)
            scores *= np.asarray(1.0 / np.sqrt(attn.head_dim), dtype=scores.dtype)
            attended = array_softmax(scores, axis=-1) @ v
            merged = attended.transpose(0, 2, 1, 3).reshape(batch, seq, self.embed_dim)
            x = _affine(merged, attn.out_proj) + x
            hidden = array_gelu(_affine(layer.norm2._normalize(x), layer.ffn.fc1))
            x = _affine(hidden, layer.ffn.fc2) + x
        return self.final_norm._normalize(x)
