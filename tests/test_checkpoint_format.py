"""The checkpoint layout of :mod:`repro.nn.serialization`.

A checkpoint is one flat array per parameter dtype plus a ``__checkpoint__``
JSON header naming every parameter's dtype and shape.  Loading is
load-and-cast into the receiving module's dtype, ``strict=`` keeps
:meth:`Module.load_state_dict`'s meaning, and the older
one-member-per-parameter layout is refused with the remedy in the message —
which the trained fixture treats like any damaged checkpoint: it retrains,
to the weights ``tests/fixtures/fixture_model_sums.json`` records for its
reduced recipe.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.fcm import FCMConfig
from repro.nn import Linear, Sequential, load_state_dict, save_state_dict, using_dtype
from repro.nn.serialization import HEADER_MEMBER

from conftest import active_dtype

MODEL_SUMS = Path(__file__).parent / "fixtures" / "fixture_model_sums.json"


def _model(dtype: str, seed: int = 0) -> Sequential:
    with using_dtype(dtype):
        model = Sequential(Linear(4, 3), Linear(3, 2))
    rng = np.random.default_rng(seed)
    for _, param in model.named_parameters():
        param.data[...] = rng.standard_normal(param.data.shape)
    return model


def _assert_same_weights(a, b) -> None:
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert pa.data.dtype == pb.data.dtype
        assert pa.data.tobytes() == pb.data.tobytes(), name_a


def _write_old_layout(model, path: Path, metadata: dict) -> None:
    """A checkpoint as builds before the flat layout wrote it."""
    arrays = {name: param.data.copy() for name, param in model.named_parameters()}
    arrays["__metadata__"] = np.frombuffer(
        json.dumps(metadata, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_round_trip_is_bitwise(tmp_path, dtype):
    source = _model(dtype)
    path = save_state_dict(source, tmp_path / "model")
    assert path.name == "model.npz"
    with np.load(path) as archive:
        assert sorted(archive.files) == sorted([HEADER_MEMBER, dtype])
        assert archive[dtype].shape == (4 * 3 + 3 + 3 * 2 + 2,)
    target = _model(dtype, seed=1)
    assert load_state_dict(target, path) == {"dtype": dtype}
    _assert_same_weights(source, target)


@pytest.mark.parametrize("saved, loaded", [("float64", "float32"), ("float32", "float64")])
def test_load_casts_to_the_receiving_module(tmp_path, saved, loaded):
    source = _model(saved)
    path = save_state_dict(source, tmp_path / "model.npz")
    target = _model(loaded, seed=1)
    assert load_state_dict(target, path)["dtype"] == saved
    for (_, a), (_, b) in zip(source.named_parameters(), target.named_parameters()):
        assert b.data.dtype == np.dtype(loaded)
        np.testing.assert_array_equal(a.data.astype(loaded), b.data)


def test_metadata_round_trips_and_dtype_is_reserved(tmp_path):
    model = _model("float64")
    metadata = {"epochs": 3, "note": "é", "nested": {"a": [1, 2.5, None]}}
    path = save_state_dict(model, tmp_path / "model.npz", metadata=metadata)
    assert load_state_dict(_model("float64"), path) == dict(metadata, dtype="float64")
    with pytest.raises(ValueError, match="reserved"):
        save_state_dict(model, tmp_path / "bad.npz", metadata={"dtype": "x"})


def test_strict_mismatches(tmp_path):
    path = save_state_dict(_model("float64"), tmp_path / "model.npz")
    with using_dtype("float64"):
        smaller = Sequential(Linear(4, 3))
        larger = Sequential(Linear(4, 3), Linear(3, 2), Linear(2, 1))
        reshaped = Sequential(Linear(4, 3), Linear(3, 5))
    with pytest.raises(KeyError, match="unexpected"):
        load_state_dict(smaller, path)
    with pytest.raises(KeyError, match="missing"):
        load_state_dict(larger, path)
    with pytest.raises(ValueError, match="shape mismatch"):
        load_state_dict(reshaped, path)
    # Non-strict loads what the two share and leaves the rest alone.
    before = larger.parameters()[-1].data.copy()
    load_state_dict(larger, path, strict=False)
    np.testing.assert_array_equal(larger.parameters()[-1].data, before)
    load_state_dict(smaller, path, strict=False)
    source = _model("float64")
    np.testing.assert_array_equal(
        smaller.parameters()[0].data, source.parameters()[0].data
    )


def test_old_layout_is_rejected_with_the_remedy(tmp_path):
    model = _model("float64")
    path = tmp_path / "old.npz"
    _write_old_layout(model, path, {"dtype": "float64"})
    with pytest.raises(ValueError, match="re-save it with save_state_dict"):
        load_state_dict(_model("float64"), path)


def test_flat_array_disagreeing_with_the_header_is_an_error(tmp_path):
    path = save_state_dict(_model("float64"), tmp_path / "model.npz")
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["float64"] = members["float64"][:-1]
    np.savez(path, **members)
    with pytest.raises(ValueError, match="corrupt"):
        load_state_dict(_model("float64"), path)


@pytest.mark.slow
@pytest.mark.skipif(
    active_dtype() != np.float64, reason="the golden holds float64 sums (float32 training drifts)"
)
def test_fixture_given_an_old_layout_file_retrains_to_the_golden(tmp_path):
    """At the golden's reduced recipe (a few seconds of training), so the
    retrain is paid on every run without the full recipe's minute."""
    from dataclasses import replace

    from repro.bench.fixture import (
        FIXTURE_AGGREGATED_FRACTION,
        FIXTURE_CORPUS,
        FIXTURE_TRAINER,
        _fixture_key,
        trained_fixture_model,
    )
    from repro.fcm import FCMModel

    golden = json.loads(MODEL_SUMS.read_text())
    reduced = golden["reduced"]
    config = FCMConfig(**golden["model_config"])
    corpus = replace(FIXTURE_CORPUS, **reduced["corpus"])
    trainer = replace(FIXTURE_TRAINER, **reduced["trainer"])
    key = _fixture_key(config, corpus, trainer, FIXTURE_AGGREGATED_FRACTION)
    assert key == reduced["fixture_key"]
    stale = tmp_path / f"fcm-{key}.npz"
    _write_old_layout(FCMModel(config), stale, {"fixture_key": key, "dtype": "float64"})

    model = trained_fixture_model(config, corpus=corpus, trainer=trainer, cache_dir=tmp_path)
    sums = {name: float(p.data.sum(dtype=np.float64)) for name, p in model.named_parameters()}
    assert sorted(sums) == sorted(reduced["parameter_sums"])
    for name, recorded in reduced["parameter_sums"].items():
        assert abs(sums[name] - float.fromhex(recorded)) <= 1e-9, name
    # The retrained weights replaced the stale file, in the current layout.
    with np.load(stale) as archive:
        assert HEADER_MEMBER in archive.files
    _assert_same_weights(
        model, trained_fixture_model(config, corpus=corpus, trainer=trainer, cache_dir=tmp_path)
    )


def test_fixture_key_covers_every_field_of_the_recipe():
    """A checkpoint is reused only for the recipe that trained it: changing
    any one field of the model, corpus or trainer recipe, or the aggregated
    share, changes the key, while ``dtype=None`` and the name it resolves to
    share one."""
    from dataclasses import fields, replace

    from repro.bench.fixture import (
        FIXTURE_AGGREGATED_FRACTION,
        FIXTURE_CORPUS,
        FIXTURE_TRAINER,
        _fixture_key,
    )
    from repro.charts import ChartSpec
    from repro.data import SynthConfig
    from repro.fcm import TrainerConfig

    config = FCMConfig(**json.loads(MODEL_SUMS.read_text())["model_config"])
    other_dtype = "float32" if config.numeric_dtype.name == "float64" else "float64"
    changed = {
        FCMConfig: {
            "embed_dim": 48,
            "num_heads": 4,
            "num_layers": 2,
            "mlp_ratio": 3.0,
            "dropout": 0.1,
            "line_segment_width": 40,
            "image_pool": 2,
            "data_segment_size": 64,
            "max_chart_segments": 8,
            "max_data_segments": 4,
            "beta": 3,
            "enable_da_layers": False,
            "use_hcman": False,
            "column_filter_tolerance": 0.5,
            "normalize_columns": False,
            "chart_spec": ChartSpec(width=200),
            "seed": 1,
            "dtype": other_dtype,
        },
        SynthConfig: {
            "num_tables": 2049,
            "num_rows": 255,
            "min_columns": 2,
            "max_columns": 4,
            "num_clusters": 2047,
            "num_harmonics": 4,
            "noise_scale": 0.1,
            "value_scales": (1.0, 2.0),
            "seed": 90002,
        },
        TrainerConfig: {
            "epochs": 4,
            "batch_size": 4,
            "learning_rate": 2e-3,
            "num_negatives": 2,
            "strategy": "hard",
            "grad_clip": None,
            "seed": 1235,
            "relevance_max_points": 32,
        },
    }
    recipe = {FCMConfig: config, SynthConfig: FIXTURE_CORPUS, TrainerConfig: FIXTURE_TRAINER}
    share = FIXTURE_AGGREGATED_FRACTION
    base = _fixture_key(config, FIXTURE_CORPUS, FIXTURE_TRAINER, share)
    named = replace(config, dtype=config.numeric_dtype.name)
    assert _fixture_key(named, FIXTURE_CORPUS, FIXTURE_TRAINER, share) == base
    assert _fixture_key(config, FIXTURE_CORPUS, FIXTURE_TRAINER, share + 0.5) != base
    for cls, values in changed.items():
        assert sorted(values) == sorted(f.name for f in fields(cls)), cls.__name__
        for name, value in values.items():
            assert getattr(recipe[cls], name) != value, name
            edited = {**recipe, cls: replace(recipe[cls], **{name: value})}
            key = _fixture_key(
                edited[FCMConfig], edited[SynthConfig], edited[TrainerConfig], share
            )
            assert key != base, f"{cls.__name__}.{name}"
