"""``repro.nn`` — a from-scratch NumPy deep-learning engine.

This package is the substrate substituting for PyTorch in the reproduction of
"Dataset Discovery via Line Charts".  It provides reverse-mode autodiff
(:mod:`repro.nn.tensor`), module/parameter management, the layers used by the
paper (linear projections, layer norm, MLPs, multi-head attention, transformer
encoders), optimizers and losses.

The working precision is a process-wide policy (:mod:`repro.nn.dtype`):
float64 by default — bit-for-bit the historical engine — or float32 for a
~2x memory/bandwidth win, selected via ``REPRO_DTYPE``,
:func:`set_default_dtype` or the :class:`using_dtype` context manager.
"""

from .attention import (
    CrossAttention,
    MultiHeadSelfAttention,
    masked_keep,
    scaled_dot_product_attention,
)
from .dtype import (
    SUPPORTED_DTYPES,
    default_dtype,
    resolve_dtype,
    set_default_dtype,
    using_dtype,
)
from .layers import (
    MLP,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    PositionalEmbedding,
    linear,
)
from .losses import (
    balanced_binary_cross_entropy,
    binary_cross_entropy,
    contrastive_cosine_loss,
    cross_entropy,
    mse_loss,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, CosineAnnealingLR, GradientClipper, Optimizer, SGD, StepLR
from .serialization import load_state_dict, save_state_dict
from .tensor import (
    Tensor,
    concatenate,
    enable_grad,
    is_grad_enabled,
    no_grad,
    pad,
    pad_stack,
    stack,
    where,
)
from .threads import compute_threads
from .transformer import FeedForward, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Adam",
    "CosineAnnealingLR",
    "CrossAttention",
    "Dropout",
    "Embedding",
    "FeedForward",
    "GradientClipper",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "ModuleList",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "PositionalEmbedding",
    "SGD",
    "SUPPORTED_DTYPES",
    "Sequential",
    "StepLR",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "balanced_binary_cross_entropy",
    "binary_cross_entropy",
    "compute_threads",
    "concatenate",
    "contrastive_cosine_loss",
    "cross_entropy",
    "default_dtype",
    "enable_grad",
    "is_grad_enabled",
    "linear",
    "load_state_dict",
    "masked_keep",
    "mse_loss",
    "no_grad",
    "pad",
    "pad_stack",
    "resolve_dtype",
    "save_state_dict",
    "scaled_dot_product_attention",
    "set_default_dtype",
    "stack",
    "using_dtype",
    "where",
]
