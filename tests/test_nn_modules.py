"""Tests for layers, attention, transformer, optimizers, losses, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    CosineAnnealingLR,
    CrossAttention,
    Dropout,
    Embedding,
    GradientClipper,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadSelfAttention,
    Parameter,
    PositionalEmbedding,
    SGD,
    Sequential,
    StepLR,
    Tensor,
    TransformerEncoder,
    balanced_binary_cross_entropy,
    binary_cross_entropy,
    contrastive_cosine_loss,
    default_dtype,
    load_state_dict,
    mse_loss,
    save_state_dict,
    scaled_dot_product_attention,
)

from conftest import dtype_tol


class TestModuleMechanics:
    def test_parameter_registration_and_count(self):
        layer = Linear(4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.num_parameters() == 4 * 3 + 3

    def test_nested_modules(self):
        model = Sequential(Linear(4, 8), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names and "layer1.bias" in names

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Linear(3, 3))
        model.eval()
        assert not model[0].training
        model.train()
        assert model[0].training

    def test_inference_flips_a_training_tree_and_restores_it(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.5), Linear(3, 3)))
        x = Tensor(np.ones((64, 3)))
        model.train()
        with model.inference():
            assert not model.training and not model[0].training
            assert not model[1][0].training
            # Dropout is the identity in here, and nothing is recorded.
            np.testing.assert_array_equal(model[0](x).numpy(), x.numpy())
            assert not model(x).requires_grad
            with model.inference():  # nested: already evaluating
                assert not model[1][0].training
            assert not model.training and not model[1][0].training
        assert model.training and model[0].training and model[1][0].training
        assert (model[0](x).numpy() != x.numpy()).any()

    def test_inference_on_an_evaluating_tree_walks_nothing(self, monkeypatch):
        model = Sequential(Dropout(0.5), Linear(3, 3))
        model.eval()
        walks = []
        train = Module.train
        monkeypatch.setattr(
            Module, "train", lambda self, mode=True: walks.append(mode) or train(self, mode)
        )
        with model.inference():
            assert not model.training and not model[0].training
            assert not model(Tensor(np.ones((2, 3)))).requires_grad
        assert walks == [] and not model.training and not model[0].training
        # The root's flag is trusted: a child put in training mode by hand
        # under an evaluating root is left as it is.
        model[0].training = True
        with model.inference():
            assert model[0].training
        assert model[0].training and not model.training

    def test_inference_restores_training_mode_when_the_body_raises(self):
        model = Sequential(Dropout(0.5), Linear(3, 3))
        model.train()
        with pytest.raises(RuntimeError):
            with model.inference():
                raise RuntimeError("boom")
        assert model.training and model[0].training

    def test_state_dict_roundtrip(self):
        model = Sequential(Linear(4, 4), LayerNorm(4))
        state = model.state_dict()
        clone = Sequential(Linear(4, 4), LayerNorm(4))
        clone.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_state_dict_strict_mismatch(self):
        model = Linear(3, 3)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((3, 3))})
        with pytest.raises(ValueError):
            model.load_state_dict(
                {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
            )

    def test_module_list(self):
        modules = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(modules) == 2
        assert len(list(modules.parameters())) == 4
        with pytest.raises(RuntimeError):
            modules(Tensor(np.ones(2)))

    def test_zero_grad(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes_and_validation(self):
        layer = Linear(5, 2)
        assert layer(Tensor(np.ones((7, 5)))).shape == (7, 2)
        assert layer(Tensor(np.ones((3, 4, 5)))).shape == (3, 4, 2)
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_layernorm_normalizes(self):
        norm = LayerNorm(8)
        out = norm(Tensor(np.random.default_rng(0).standard_normal((5, 8)) * 10 + 3))
        values = out.numpy()
        np.testing.assert_allclose(values.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(values.std(axis=-1), 1.0, atol=1e-2)

    def test_dropout_training_vs_eval(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 10)))
        out_train = dropout(x).numpy()
        assert (out_train == 0).any()
        dropout.eval()
        np.testing.assert_allclose(dropout(x).numpy(), np.ones((100, 10)))
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_mlp_shapes_and_activation_validation(self):
        mlp = MLP(6, [8, 8], 2, activation="relu")
        assert mlp(Tensor(np.ones((3, 6)))).shape == (3, 2)
        with pytest.raises(ValueError):
            MLP(4, [4], 2, activation="nonsense")

    def test_embedding_lookup_and_bounds(self):
        emb = Embedding(10, 4)
        assert emb([1, 2, 3]).shape == (3, 4)
        with pytest.raises(IndexError):
            emb([10])

    def test_positional_embedding(self):
        pos = PositionalEmbedding(8, 4)
        x = Tensor(np.zeros((5, 4)))
        out = pos(x).numpy()
        np.testing.assert_allclose(out, pos.weight.data[:5])
        with pytest.raises(ValueError):
            pos(Tensor(np.zeros((9, 4))))


class TestAttention:
    def test_scaled_dot_product_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((4, 8)))
        k = Tensor(rng.standard_normal((6, 8)))
        v = Tensor(rng.standard_normal((6, 8)))
        out, weights = scaled_dot_product_attention(q, k, v)
        assert out.shape == (4, 8)
        np.testing.assert_allclose(
            weights.numpy().sum(axis=-1), np.ones(4), atol=dtype_tol(1e-9, 1e-6)
        )

    def test_attention_mask(self):
        q = Tensor(np.ones((2, 4)))
        k = Tensor(np.ones((3, 4)))
        v = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        mask = np.array([[True, False, False], [True, True, False]])
        _, weights = scaled_dot_product_attention(q, k, v, mask=mask)
        w = weights.numpy()
        assert w[0, 1] < 1e-6 and w[0, 2] < 1e-6
        assert w[1, 2] < 1e-6

    def test_multihead_self_attention_shapes(self):
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=4)
        assert attn(Tensor(np.random.default_rng(0).standard_normal((5, 16)))).shape == (5, 16)
        assert attn(Tensor(np.random.default_rng(0).standard_normal((2, 5, 16)))).shape == (2, 5, 16)
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(embed_dim=10, num_heads=3)

    def test_cross_attention_shapes(self):
        cross = CrossAttention(embed_dim=8)
        out, weights = cross(
            Tensor(np.random.default_rng(0).standard_normal((3, 8))),
            Tensor(np.random.default_rng(1).standard_normal((5, 8))),
        )
        assert out.shape == (3, 8)
        assert weights.shape == (3, 5)

    def test_attention_is_differentiable(self):
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None and x.grad.shape == (4, 8)


class TestTransformer:
    def test_encoder_shapes_single_and_batched(self):
        encoder = TransformerEncoder(embed_dim=16, num_heads=2, num_layers=2, max_positions=10)
        assert encoder(Tensor(np.zeros((7, 16)))).shape == (7, 16)
        assert encoder(Tensor(np.zeros((3, 7, 16)))).shape == (3, 7, 16)

    def test_encoder_gradients_reach_input(self):
        rng = np.random.default_rng(0)
        encoder = TransformerEncoder(
            embed_dim=8, num_heads=2, num_layers=1, max_positions=6, rng=rng
        )
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        out = encoder(x)
        # A plain .sum() loss is (analytically) constant in x here: the final
        # LayerNorm's output sums to its bias along the feature axis at init,
        # so the input gradient would be pure floating-point residue.  A
        # squared loss breaks that invariance and gives a real gradient.
        (out * out).sum().backward()
        assert x.grad is not None and x.grad.shape == (4, 8)
        assert np.abs(x.grad).sum() > 1e-6

    def test_batch_independence(self):
        """Batched encoding must equal per-item encoding (no cross-batch attention)."""
        encoder = TransformerEncoder(embed_dim=8, num_heads=2, num_layers=1, max_positions=5)
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((3, 5, 8))
        batched = encoder(Tensor(batch)).numpy()
        for i in range(3):
            single = encoder(Tensor(batch[i])).numpy()
            np.testing.assert_allclose(batched[i], single, atol=1e-10)


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0, 0.5])
        param = Parameter(np.zeros(3))
        return param, target

    def test_sgd_converges(self):
        param, target = self._quadratic_problem()
        opt = SGD([param], lr=0.1, momentum=0.5)
        for _ in range(200):
            loss = ((Tensor(param.data) - target) ** 2).sum()
            param.grad = 2 * (param.data - target)
            opt.step()
            opt.zero_grad()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_adam_converges(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            param.grad = 2 * (param.data - target)
            opt.step()
            opt.zero_grad()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=-1.0)

    def test_gradient_clipper(self):
        param = Parameter(np.zeros(4))
        param.grad = np.ones(4) * 10.0
        clipper = GradientClipper(max_norm=1.0)
        norm = clipper.clip([param])
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-6)

    def test_lr_schedules(self):
        param = Parameter(np.zeros(2))
        opt = Adam([param], lr=1.0)
        step = StepLR(opt, step_size=2, gamma=0.5)
        for _ in range(4):
            step.step()
        assert opt.lr == pytest.approx(0.25)
        opt2 = Adam([param], lr=1.0)
        cosine = CosineAnnealingLR(opt2, total_epochs=10)
        for _ in range(10):
            cosine.step()
        assert opt2.lr == pytest.approx(0.0, abs=1e-9)


class TestLosses:
    def test_bce_perfect_prediction_is_small(self):
        loss = binary_cross_entropy(Tensor(np.array([0.999, 0.001])), np.array([1.0, 0.0]))
        assert loss.item() < 0.01

    def test_balanced_bce_handles_imbalance(self):
        predictions = Tensor(np.array([0.9, 0.1, 0.1, 0.1, 0.1]))
        labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        balanced = balanced_binary_cross_entropy(predictions, labels).item()
        # Constant 0.5 prediction gives -2*log(0.5) ≈ 1.386 under the balanced loss.
        constant = balanced_binary_cross_entropy(
            Tensor(np.full(5, 0.5)), labels
        ).item()
        assert balanced < constant

    def test_balanced_bce_matches_eq2_by_hand(self):
        preds = np.array([0.8, 0.3, 0.6])
        labels = np.array([1.0, 0.0, 0.0])
        expected = -(np.log(0.8) / 1 + (np.log(0.7) + np.log(0.4)) / 2)
        got = balanced_binary_cross_entropy(Tensor(preds), labels).item()
        assert got == pytest.approx(expected, rel=1e-6)

    def test_mse(self):
        assert mse_loss(Tensor(np.array([1.0, 2.0])), np.array([1.0, 4.0])).item() == pytest.approx(2.0)

    def test_contrastive_loss_prefers_close_positive(self):
        anchor = Tensor(np.array([1.0, 0.0, 0.0]))
        positive = Tensor(np.array([0.9, 0.1, 0.0]))
        negatives = Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        close = contrastive_cosine_loss(anchor, positive, negatives).item()
        far = contrastive_cosine_loss(anchor, Tensor(np.array([0.0, 1.0, 0.0])), negatives).item()
        assert close < far


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        model = Sequential(Linear(4, 4), LayerNorm(4))
        path = save_state_dict(model, tmp_path / "model.npz", metadata={"epochs": 3})
        clone = Sequential(Linear(4, 4), LayerNorm(4))
        metadata = load_state_dict(clone, path)
        # Checkpoints always record the parameter dtype alongside metadata.
        assert metadata == {"epochs": 3, "dtype": np.dtype(default_dtype()).name}
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())
