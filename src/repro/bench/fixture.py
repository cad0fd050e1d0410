"""A tiny deterministic *trained* checkpoint for benchmarks and parity tests.

The scale sweep (and the quantized-prefilter recall floor) are meaningless
against randomly initialised weights: an untrained matcher scores every
table near 0.5, so candidate pruning never separates anything and recall
numbers say nothing about the index.  This module trains one small FCM
model on the synthetic corpus with a pinned seed and a handful of epochs —
enough for the matcher to rank the ground-truth table well above
distractors — and caches the weights on disk so every later run (and every
test in the same CI job) loads instead of retrains.

The cache key is a hash of every field of the model configuration, the
corpus recipe and the trainer recipe, so changing any of them invalidates
the checkpoint automatically.  The cache lives in ``tests/fixtures/``
(gitignored — checkpoints are reproducible artifacts, not sources); set
``REPRO_FIXTURE_DIR`` to relocate it (e.g. a CI cache volume).

Training runs under the **current** precision policy: a ``REPRO_DTYPE``
change re-trains rather than load-and-casting, because a cast checkpoint
would not reproduce the scores the float32 paths are pinned against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from ..data.corpus import CorpusConfig, generate_corpus
from ..fcm.config import FCMConfig
from ..fcm.model import FCMModel
from ..fcm.training import TrainerConfig, train_fcm
from ..nn.serialization import load_state_dict, save_state_dict
from ..obs import get_logger

_log = get_logger("repro.bench.fixture")

#: Default corpus recipe: small enough to train in well under a minute on
#: one CPU core, varied enough that a few epochs separate match from
#: non-match decisively.
FIXTURE_CORPUS = CorpusConfig(
    num_records=24,
    min_rows=96,
    max_rows=192,
    extra_columns_max=2,
    non_line_fraction=0.0,
    duplicate_fraction=0.0,
    seed=1234,
)

#: Default trainer recipe (pinned seed; a few epochs is all the tiny
#: corpus needs).
FIXTURE_TRAINER = TrainerConfig(epochs=3, batch_size=8, seed=1234)


def _default_fixture_dir() -> Path:
    env = os.environ.get("REPRO_FIXTURE_DIR")
    if env:
        return Path(env)
    # src/repro/bench/fixture.py -> repo root is three parents up from repro/.
    root = Path(__file__).resolve().parents[3]
    return root / "tests" / "fixtures"


def _fixture_key(
    config: FCMConfig, corpus: CorpusConfig, trainer: TrainerConfig
) -> str:
    """Hash of every field of the three recipes (the model's dtype by the
    name it resolves to, so ``None`` and the policy's name agree)."""
    model = dataclasses.asdict(config)
    model["dtype"] = config.numeric_dtype.name
    payload = json.dumps(
        {
            "model": model,
            "corpus": dataclasses.asdict(corpus),
            "trainer": dataclasses.asdict(trainer),
        },
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def trained_fixture_model(
    config: Optional[FCMConfig] = None,
    corpus: Optional[CorpusConfig] = None,
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
    key = _fixture_key(config, corpus, trainer)
    checkpoint = cache_dir / f"fcm-{key}.npz"
    if checkpoint.exists():
        try:
            model = FCMModel(config)
            load_state_dict(model, checkpoint)
            model.eval()
            _log.debug("fixture_loaded", path=str(checkpoint))
            return model
        except Exception as exc:  # retrain on any damage
            _log.info(
                "fixture_checkpoint_invalid", path=str(checkpoint), error=str(exc)
            )
    records = generate_corpus(corpus)
    model, history, _ = train_fcm(records, config=config, trainer_config=trainer)
    model.eval()
    cache_dir.mkdir(parents=True, exist_ok=True)
    save_state_dict(
        model,
        checkpoint,
        metadata={"fixture_key": key, "final_loss": history.final_loss},
    )
    _log.info(
        "fixture_trained",
        path=str(checkpoint),
        epochs=trainer.epochs,
        final_loss=history.final_loss,
    )
    return model
