"""Core trainable layers: Linear, MLP, LayerNorm, Dropout, Embedding.

These are the building blocks referenced throughout the paper: the trainable
linear projection that maps line-segment images and data segments to
embeddings (Sec. IV-B/IV-C), the layer normalisation used inside the
transformer blocks (Eq. 1), the two-layer MLPs used by the transformation
layers and HMRL (Sec. V-B/V-C), and the MLP head of the cross-modal matcher
(Sec. IV-D).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor


def _resolve_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Map an activation name to a Tensor method."""
    table = {
        "relu": Tensor.relu,
        "gelu": Tensor.gelu,
        "tanh": Tensor.tanh,
        "sigmoid": Tensor.sigmoid,
        "leaky_relu": Tensor.leaky_relu,
        "identity": lambda t: t,
    }
    if name not in table:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")
    return table[name]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` — the :class:`Linear` forward as a function.

    With a 2-D ``weight`` every leading axis of ``x`` is folded into the rows
    of one GEMM (``matmul`` on a stacked input calls BLAS once per leading
    index); a stacked ``weight`` (``(E, in, out)``, the expert-stacked layers
    of :mod:`repro.fcm.da_layers`) multiplies batch-wise as ``matmul`` does.
    Outside the autodiff graph the bias is added into the fresh product
    instead of allocating a second array; the values are the same either way.
    """
    lead = x.shape[:-1] if x.ndim > 2 and weight.ndim == 2 else None
    if lead is not None:
        x = x.reshape(-1, x.shape[-1])
    if x._tracked(weight, *(() if bias is None else (bias,))):
        out = x.matmul(weight)
        if bias is not None:
            out = out + bias
    else:
        data = x.data @ weight.data
        if bias is not None:
            data += bias.data
        out = Tensor(data, dtype=data.dtype)
    return out if lead is None else out.reshape(*lead, weight.shape[-1])


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality of the last axis.
    bias:
        Whether to add a learnable bias.
    rng:
        Generator used for weight initialisation (Xavier uniform).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng=rng), name="weight"
        )
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features})"


class LayerNorm(Module):
    """Layer normalisation over the last axis with learnable scale/shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if not x._tracked(self.weight, self.bias):
            return Tensor(self._normalize(x.data), dtype=x.data.dtype)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / ((var + self.eps) ** 0.5)
        return normalized * self.weight + self.bias

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        """The graphed formula above, step for step and bit for bit, in two
        buffers (statistics accumulate in float64 as ``Tensor.sum`` does)."""
        scale = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype, copy=False)
        mean *= scale
        out = x - mean
        squares = out * out
        var = squares.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype, copy=False)
        var *= scale
        var += self.eps
        np.sqrt(var, out=var)
        out /= var
        out *= self.weight.data
        out += self.bias.data
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayerNorm({self.normalized_shape})"


class Dropout(Module):
    """Inverted dropout; active only while the module is in training mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = self._rng.random(x.shape) < keep
        # The mask array is lifted to x's dtype by the multiply itself.
        return x * (mask / keep)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(p={self.p})"


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation.

    The paper uses two-layer MLPs in several places (transformation layers,
    HMRL combination function, matcher head); this class covers all of them.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        activation: str = "relu",
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.activation_name = activation
        self._activation = _resolve_activation(activation)
        sizes = [in_features, *hidden_features, out_features]
        self.layers = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(n_in, n_out, rng=rng)
            self.add_module(f"fc{i}", layer)
            self.layers.append(layer)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = self._activation(x)
                if self.dropout is not None:
                    x = self.dropout(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal((num_embeddings, embedding_dim), rng=rng), name="weight"
        )

    def forward(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= self.num_embeddings:
            raise IndexError("embedding index out of range")
        return self.weight[idx]


class PositionalEmbedding(Module):
    """Learnable positional embeddings ``E_pos`` as used in Eq. 1."""

    def __init__(
        self,
        max_positions: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.max_positions = max_positions
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal((max_positions, embedding_dim), rng=rng), name="weight"
        )

    def forward(self, x: Tensor) -> Tensor:
        """Add positional embeddings to ``x`` of shape ``(..., seq, dim)``."""
        return x + self.weight[: self._checked_length(x.shape[-2])]

    def _checked_length(self, seq_len: int) -> int:
        """``seq_len``, or a ``ValueError`` when it exceeds ``max_positions``."""
        if seq_len > self.max_positions:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_positions {self.max_positions}"
            )
        return seq_len
