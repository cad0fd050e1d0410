"""Loss functions, including the class-balanced BCE objective of Eq. 2.

Eq. 2 in the paper is a binary cross-entropy in which the positive and
negative terms are normalised separately by the number of positive and
negative examples — this keeps the objective balanced even though the
negative-sampling strategy produces ``N−`` negatives per positive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor


def _ensure_tensor(value, like: Optional[Tensor] = None) -> Tensor:
    """Lift ``value`` to a Tensor, following ``like``'s dtype when given.

    Targets are lifted to the predictions' dtype so a float32 model's loss
    graph never silently promotes to float64 (loss *reductions* still
    accumulate in float64 — see :mod:`repro.nn.dtype`).
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=None if like is None else like.data.dtype)


def binary_cross_entropy(
    predictions: Tensor,
    targets,
    eps: float = 1e-7,
) -> Tensor:
    """Plain BCE over probabilities (not logits)."""
    predictions = _ensure_tensor(predictions)
    targets = _ensure_tensor(targets, like=predictions)
    clipped = predictions.clip(eps, 1.0 - eps)
    loss = -(targets * clipped.log() + (1.0 - targets) * (1.0 - clipped).log())
    return loss.mean()


def balanced_binary_cross_entropy(
    predictions: Tensor,
    targets,
    eps: float = 1e-7,
) -> Tensor:
    """The objective of Eq. 2: BCE with per-class normalisation.

    ``L = -[ (1/N_pos) Σ_pos r log(r̂) + (1/N_neg) Σ_neg (1-r) log(1-r̂) ]``

    Parameters
    ----------
    predictions:
        Model outputs ``Rel'(V, T)`` in ``[0, 1]``.
    targets:
        Ground-truth labels in ``{0, 1}`` (or soft labels in ``[0, 1]``).
    """
    predictions = _ensure_tensor(predictions)
    targets = _ensure_tensor(targets, like=predictions)
    clipped = predictions.clip(eps, 1.0 - eps)
    target_data = targets.data
    n_pos = float(np.sum(target_data > 0.5))
    n_neg = float(np.sum(target_data <= 0.5))
    pos_term = (targets * clipped.log()).sum() * (1.0 / max(n_pos, 1.0))
    neg_term = ((1.0 - targets) * (1.0 - clipped).log()).sum() * (1.0 / max(n_neg, 1.0))
    return -(pos_term + neg_term)


def mse_loss(predictions: Tensor, targets) -> Tensor:
    """Mean squared error."""
    predictions = _ensure_tensor(predictions)
    targets = _ensure_tensor(targets, like=predictions)
    diff = predictions - targets
    return (diff * diff).mean()


def contrastive_cosine_loss(
    anchor: Tensor,
    positive: Tensor,
    negatives: Tensor,
    temperature: float = 0.1,
) -> Tensor:
    """InfoNCE-style loss used to train the CML bi-encoder baseline.

    Parameters
    ----------
    anchor:
        ``(dim,)`` embedding of the chart.
    positive:
        ``(dim,)`` embedding of the matching table.
    negatives:
        ``(n_neg, dim)`` embeddings of non-matching tables.
    """
    def _normalize(t: Tensor) -> Tensor:
        norm = (t * t).sum(axis=-1, keepdims=True) ** 0.5
        return t / (norm + 1e-8)

    anchor_n = _normalize(anchor)
    positive_n = _normalize(positive)
    negatives_n = _normalize(negatives)
    pos_sim = (anchor_n * positive_n).sum() * (1.0 / temperature)
    neg_sims = negatives_n.matmul(anchor_n) * (1.0 / temperature)
    from .tensor import concatenate

    all_sims = concatenate([pos_sim.reshape(1), neg_sims.reshape(-1)], axis=0)
    log_probs = all_sims.log_softmax(axis=0)
    return -(log_probs[0])
