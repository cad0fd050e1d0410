"""A deterministic *trained* checkpoint for benchmarks and parity tests.

Recall and pruning numbers say nothing against random weights, which score
every table near 0.5.  This module trains one small FCM model on the tables
the benchmarks serve, :mod:`repro.data.synth`'s, each its own prototype and
each chart plotting every column — 2 048 distinct shapes generalise where a
few dozen records are memorised — in under a minute on one core, and caches
the weights so every later run (and every test) loads instead of retrains.

The cache key hashes every field of the model, corpus and trainer recipes
and the aggregated-chart share, so any change retrains.  The cache lives in
``tests/fixtures/`` (gitignored — checkpoints are reproducible artifacts,
not sources); set ``REPRO_FIXTURE_DIR`` to relocate it (e.g. a CI cache
volume).  Training runs under the **current** precision policy: a
``REPRO_DTYPE`` change re-trains rather than load-and-casting, because a
cast checkpoint would not reproduce the scores the float32 paths are pinned
against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional

from ..data.corpus import CorpusRecord, VisualizationSpec
from ..data.synth import SynthConfig, synth_tables
from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.training import TrainerConfig, train_fcm
from ..nn.serialization import load_state_dict, save_state_dict
from ..obs import get_logger

_log = get_logger("repro.bench.fixture")

#: Default corpus recipe, one prototype per table.  A cluster's prototype is
#: seeded by ``(seed, cluster)`` alone, so training at an evaluation corpus's
#: seed would train on its prototypes: the seed is far from every benchmark
#: and test seed.
FIXTURE_CORPUS = SynthConfig(2048, num_rows=256, max_columns=3, num_clusters=2048, seed=90001)

#: Default trainer recipe: at a fixed budget, more tables and fewer epochs
#: generalise better than the reverse.
FIXTURE_TRAINER = TrainerConfig(epochs=6, batch_size=8, seed=1234, strategy="random")

#: No training chart is aggregated: none the benchmarks serve is.
FIXTURE_AGGREGATED_FRACTION = 0.0


def fixture_records(corpus: SynthConfig) -> List[CorpusRecord]:
    """One training record per corpus table, its chart plotting every column."""
    return [
        CorpusRecord(table, VisualizationSpec(table.table_id, tuple(table.column_names)))
        for table in synth_tables(corpus)
    ]


def _default_fixture_dir() -> Path:
    env = os.environ.get("REPRO_FIXTURE_DIR")
    if env:
        return Path(env)
    # src/repro/bench/fixture.py -> repo root is three parents up from repro/.
    root = Path(__file__).resolve().parents[3]
    return root / "tests" / "fixtures"


def _fixture_key(
    config: FCMConfig, corpus: SynthConfig, trainer: TrainerConfig, aggregated_fraction: float
) -> str:
    """Hash of every field of the three recipes and of the aggregated share
    (the model's dtype by the name it resolves to, so ``None`` and the
    policy's name agree)."""
    model = dataclasses.asdict(config)
    model["dtype"] = config.numeric_dtype.name
    payload = json.dumps(
        {
            "model": model,
            "corpus": dataclasses.asdict(corpus),
            "trainer": dataclasses.asdict(trainer),
            "aggregated_fraction": aggregated_fraction,
        },
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def trained_fixture_model(
    config: Optional[FCMConfig] = None,
    corpus: Optional[SynthConfig] = None,
    trainer: Optional[TrainerConfig] = None,
    cache_dir: Optional[Path] = None,
) -> FCMModel:
    """The deterministic trained model, loading the cached checkpoint if any.

    The first call for a given (model config, corpus recipe, trainer recipe,
    precision) trains from scratch — deterministic given the pinned seeds —
    and writes ``tests/fixtures/fcm-<key>.npz``; later calls load it.  A
    corrupt or stale-format checkpoint is retrained, never trusted.
    """
    config = config or FCMConfig()
    corpus = corpus or FIXTURE_CORPUS
    trainer = trainer or FIXTURE_TRAINER
    cache_dir = Path(cache_dir) if cache_dir is not None else _default_fixture_dir()
    key = _fixture_key(config, corpus, trainer, FIXTURE_AGGREGATED_FRACTION)
    checkpoint = cache_dir / f"fcm-{key}.npz"
    if checkpoint.exists():
        try:
            model = FCMModel(config)
            load_state_dict(model, checkpoint)
            model.eval()
            _log.debug("fixture_loaded", path=str(checkpoint))
            return model
        except Exception as exc:  # retrain on any damage
            _log.info("fixture_checkpoint_invalid", path=str(checkpoint), error=str(exc))
    model, history, _ = train_fcm(
        fixture_records(corpus), config, trainer, aggregated_fraction=FIXTURE_AGGREGATED_FRACTION
    )
    model.eval()
    cache_dir.mkdir(parents=True, exist_ok=True)
    metadata = {"fixture_key": key, "final_loss": history.final_loss}
    save_state_dict(model, checkpoint, metadata=metadata)
    _log.info("fixture_trained", path=str(checkpoint), epochs=trainer.epochs, **metadata)
    return model
