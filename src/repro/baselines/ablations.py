"""FCM as a :class:`DiscoveryMethod`, plus its two ablation variants.

* **FCM** — the full model (HCMAN matcher + DA layers);
* **FCM−HCMAN** (Table V) — the hierarchical cross-modal attention matcher is
  replaced by representation averaging + MLP;
* **FCM−DA** (Table VI) — the transformation/HMRL/MoE layers are removed from
  the dataset encoder.

All three share the same training procedure; the factory functions below
build the matching config so experiment code only differs in one call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..charts.rasterizer import LineChart
from ..data.corpus import CorpusRecord
from ..data.table import Table
from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.scorer import FCMScorer
from ..fcm.training import TrainerConfig, TrainingHistory, train_fcm
from .base import DiscoveryMethod


class FCMMethod(DiscoveryMethod):
    """Adapter exposing a trained FCM model through the common interface."""

    name = "FCM"

    def __init__(
        self,
        model: FCMModel,
        name: Optional[str] = None,
    ) -> None:
        self.model = model
        self.scorer = FCMScorer(model)
        if name is not None:
            self.name = name

    def index_repository(self, tables: Iterable[Table]) -> None:
        self.scorer.index_repository(tables)

    def score_chart(self, chart: LineChart) -> Dict[str, float]:
        # Batched no-grad verification: identical scores to the per-pair
        # loop, one stacked matcher forward for the whole repository.
        return self.scorer.score_chart_batch(chart)


def fcm_full_config(base: Optional[FCMConfig] = None) -> FCMConfig:
    """Configuration of the full FCM model."""
    base = base or FCMConfig()
    return base.with_overrides(use_hcman=True, enable_da_layers=True)


def fcm_without_hcman_config(base: Optional[FCMConfig] = None) -> FCMConfig:
    """Configuration of the FCM−HCMAN ablation (Table V)."""
    base = base or FCMConfig()
    return base.with_overrides(use_hcman=False, enable_da_layers=True)


def fcm_without_da_config(base: Optional[FCMConfig] = None) -> FCMConfig:
    """Configuration of the FCM−DA ablation (Table VI)."""
    base = base or FCMConfig()
    return base.with_overrides(use_hcman=True, enable_da_layers=False)


ABLATION_FACTORIES = {
    "FCM": fcm_full_config,
    "FCM-HCMAN": fcm_without_hcman_config,
    "FCM-DA": fcm_without_da_config,
}


def train_fcm_variant(
    variant: str,
    records: Sequence[CorpusRecord],
    base_config: Optional[FCMConfig] = None,
    trainer_config: Optional[TrainerConfig] = None,
    aggregated_fraction: float = 0.5,
) -> Tuple[FCMMethod, TrainingHistory]:
    """Train one of ``FCM``, ``FCM-HCMAN`` or ``FCM-DA`` and wrap it.

    Returns the ready-to-index :class:`FCMMethod` and its training history.
    """
    if variant not in ABLATION_FACTORIES:
        raise ValueError(
            f"unknown FCM variant {variant!r}; expected one of {sorted(ABLATION_FACTORIES)}"
        )
    config = ABLATION_FACTORIES[variant](base_config)
    model, history, _ = train_fcm(
        records,
        config=config,
        trainer_config=trainer_config,
        aggregated_fraction=aggregated_fraction,
    )
    return FCMMethod(model, name=variant), history
