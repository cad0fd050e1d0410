"""Parameter initialisation schemes used by the NumPy neural-network engine.

Each function returns a plain ``numpy.ndarray``; wrapping it into a
:class:`~repro.nn.tensor.Tensor` parameter is the caller's job (usually a
:class:`~repro.nn.module.Module` subclass).

Precision policy: every scheme draws its random values in float64 — so the
value stream is identical whatever the active dtype, and float32 parameters
are exactly the rounded float64 ones — and casts the result to ``dtype``
(``None`` = the process-wide policy dtype, see :mod:`repro.nn.dtype`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .dtype import resolve_dtype


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return (fan_in, fan_out) for a weight of ``shape``.

    For 2-D weights this is ``(in_features, out_features)``; for higher-rank
    weights the receptive-field size multiplies both fans, mirroring the
    convention used by PyTorch.
    """
    if len(shape) < 2:
        fan = int(shape[0]) if shape else 1
        return fan, fan
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def xavier_uniform(
    shape: Tuple[int, ...],
    rng: Optional[np.random.Generator] = None,
    gain: float = 1.0,
    dtype=None,
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    rng = rng or np.random.default_rng()
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(resolve_dtype(dtype), copy=False)


def zeros(shape: Tuple[int, ...], dtype=None) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape, dtype=resolve_dtype(dtype))


def ones(shape: Tuple[int, ...], dtype=None) -> np.ndarray:
    """All-one initialisation (used for LayerNorm scale)."""
    return np.ones(shape, dtype=resolve_dtype(dtype))


def normal(
    shape: Tuple[int, ...],
    rng: Optional[np.random.Generator] = None,
    std: float = 0.02,
    dtype=None,
) -> np.ndarray:
    """Small-std normal initialisation (used for positional embeddings)."""
    rng = rng or np.random.default_rng()
    return rng.normal(0.0, std, size=shape).astype(resolve_dtype(dtype), copy=False)
