import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred.autoencoder import (
    AEConfig,
    AEModel,
    forward,
    forward_batch,
    gradients,
    init_model,
    losses,
    mean_losses,
    predict,
    train,
)
from oracles import ae_forward_brute, ae_train_brute, finite_diff_gradients


def small_model(seed=0, input_dim=8, hidden=4, bottleneck=2):
    return init_model(
        AEConfig(input_dim=input_dim, hidden_dim=hidden, bottleneck_dim=bottleneck, seed=seed)
    )


class TestConfig:
    def test_default_dims(self):
        cfg = AEConfig(input_dim=10)
        assert cfg.hidden_dim == 5
        assert cfg.bottleneck_dim == 3

    def test_default_dims_small_input(self):
        cfg = AEConfig(input_dim=3)
        assert cfg.hidden_dim == 2
        assert cfg.bottleneck_dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AEConfig(input_dim=0)
        with pytest.raises(ValueError):
            AEConfig(input_dim=4, learning_rate=0.0)
        with pytest.raises(ValueError):
            AEConfig(input_dim=4, epochs=0)


class TestForward:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_probs_normalized(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8) * 3
        _, probs, _ = forward(model, x)
        assert abs(float(probs.sum()) - 1.0) < 1e-12
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_relu_dead_zone(self):
        model = small_model(3)
        model.W2 = np.zeros_like(model.W2)
        model.b2 = np.full_like(model.b2, -1.0)
        x = np.random.default_rng(3).standard_normal(8)
        recon, probs, code = forward(model, x)
        np.testing.assert_array_equal(code, np.zeros(2))
        np.testing.assert_array_equal(recon, model.b3)
        expected = np.exp(model.b4) / np.exp(model.b4).sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8)
        recon, probs, code = forward(model, x)
        recon_b, probs_b, code_b = ae_forward_brute(model, x)
        np.testing.assert_allclose(recon, recon_b, atol=1e-12)
        np.testing.assert_allclose(probs, probs_b, atol=1e-12)
        np.testing.assert_allclose(code, code_b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_model(), np.zeros(9))


class TestLosses:
    def test_perfect_point(self):
        model = small_model(1)
        x = np.random.default_rng(1).standard_normal(8)
        _, _, code = forward(model, x)
        model.W3 = np.zeros_like(model.W3)
        model.b3 = x.copy()  # exact reconstruction regardless of code
        model.W4 = np.zeros_like(model.W4)
        model.b4 = np.array([1000.0, -1000.0])  # probs = (1, 0) exactly in float
        assert losses(model, x, 0) == (0.0, 0.0, 0.0)

    def test_uniform_logits(self):
        model = small_model(2)
        model.W4 = np.zeros_like(model.W4)
        model.b4 = np.zeros_like(model.b4)
        x = np.random.default_rng(2).standard_normal(8)
        _, l_cls, _ = losses(model, x, 1)
        assert l_cls == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8)
        label = int(rng.integers(2))
        recon, probs, _ = forward(model, x)
        l_rec, l_cls, l_tot = losses(model, x, label)
        assert l_rec == pytest.approx(float(np.mean((recon - x) ** 2)), abs=1e-12)
        assert l_cls == pytest.approx(-math.log(probs[label]), abs=1e-12)
        assert l_tot == pytest.approx(l_rec + l_cls, abs=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            losses(small_model(), np.zeros(8), 2)


class TestGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_check(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        X = rng.standard_normal((6, 8))
        y = rng.integers(0, 2, size=6)
        analytic = gradients(model, X, y)
        numeric = finite_diff_gradients(model, X, y, step=1e-5)
        for name in analytic:
            denom = np.maximum(1.0, np.abs(analytic[name]))
            err = np.abs(analytic[name] - numeric[name]) / denom
            assert err.max() < 1e-4, f"{name}: max rel err {err.max()}"

    def test_weighted_loss_gradients(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 8))
        y = rng.integers(0, 2, size=5)
        base = init_model(
            AEConfig(input_dim=8, hidden_dim=4, bottleneck_dim=2, seed=7,
                     rec_weight=0.0, cls_weight=1.0)
        )
        doubled = init_model(
            AEConfig(input_dim=8, hidden_dim=4, bottleneck_dim=2, seed=7,
                     rec_weight=0.0, cls_weight=2.0)
        )
        g1 = gradients(base, X, y)
        g2 = gradients(doubled, X, y)
        np.testing.assert_allclose(g2["W4"], 2.0 * g1["W4"], atol=1e-12)
        np.testing.assert_allclose(g2["b4"], 2.0 * g1["b4"], atol=1e-12)

    def test_zero_weight_surface_keeps_params(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 8))
        y = rng.integers(0, 2, size=4)
        config = AEConfig(input_dim=8, hidden_dim=4, bottleneck_dim=2, seed=8,
                          epochs=3, rec_weight=0.0, cls_weight=0.0)
        model, trace = train(X, y, config)
        reference = init_model(config)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param, getattr(reference, name))
        assert np.all(trace.total == 0.0)


class TestTrain:
    def test_determinism(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 8))
        y = rng.integers(0, 2, size=20)
        config = AEConfig(input_dim=8, epochs=20, seed=5)
        model_a, trace_a = train(X, y, config)
        model_b, trace_b = train(X, y, config)
        for name, param in model_a.parameters().items():
            np.testing.assert_array_equal(param, getattr(model_b, name))
        np.testing.assert_array_equal(trace_a.total, trace_b.total)

    def test_trace_shape_and_finiteness(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 6))
        y = rng.integers(0, 2, size=30)
        config = AEConfig(input_dim=6, epochs=100, seed=0)
        _, trace = train(X, y, config)
        assert trace.total.shape == (100,)
        assert np.all(np.isfinite(trace.rec))
        assert np.all(np.isfinite(trace.cls))
        assert np.all(np.isfinite(trace.total))

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(11)
        n = 40
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        X = rng.standard_normal((n, 4)) + y[:, None] * 4.0
        config = AEConfig(input_dim=4, epochs=100, seed=1)
        model, trace = train(X, y, config)
        final = mean_losses(model, X, y)
        assert final[2] < 0.5 * trace.total[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 4)), [], AEConfig(input_dim=4))


def _assert_same_training(X, y, config):
    model, trace = train(X, y, config)
    params, history = ae_train_brute(X, y, config)
    for name, param in params.items():
        assert np.array_equal(getattr(model, name), param), name
    for row, name in zip(history, ("rec", "cls", "total")):
        assert np.array_equal(getattr(trace, name), row), name


class TestTrainOracle:
    """One forward pass per epoch and a flat Adam step give the earlier loop's bits."""

    @pytest.mark.parametrize("epochs", [1, 20])
    @pytest.mark.parametrize("width", [1, 32, 96])
    @pytest.mark.parametrize("n", [2, 17])
    def test_matches_two_pass_loop(self, n, width, epochs):
        rng = np.random.default_rng(1000 * n + width + epochs)
        X = rng.standard_normal((n, width)) * rng.uniform(0.1, 10.0, width)
        y = np.arange(n) % 2
        _assert_same_training(X, y, AEConfig(input_dim=width, epochs=epochs, seed=n + width))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(rec_weight=0.3, cls_weight=2.5),
            dict(hidden_dim=7, bottleneck_dim=5, learning_rate=0.05),
            dict(hidden_dim=1, bottleneck_dim=1, rec_weight=0.0),
        ],
    )
    def test_matches_with_settings(self, overrides):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((17, 12))
        X[:, 3] = 2.0  # a constant column keeps scale 1
        y = rng.integers(0, 2, size=17)
        _assert_same_training(X, y, AEConfig(input_dim=12, epochs=20, seed=4, **overrides))

    @given(
        st.integers(2, 30), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_on_random_shapes(self, n, width, epochs, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, width))
        y = rng.integers(0, 2, size=n)
        _assert_same_training(X, y, AEConfig(input_dim=width, epochs=epochs, seed=seed % 1000))


class TestPredict:
    def _fixed_prob_model(self, logits):
        model = small_model(12)
        model.W4 = np.zeros_like(model.W4)
        model.b4 = np.array(logits, dtype=float)
        return model

    def test_majority_prob(self):
        model = self._fixed_prob_model([math.log(0.9), math.log(0.1)])
        assert predict(model, np.zeros((3, 8))).tolist() == [0, 0, 0]

    def test_tie_resolves_to_zero(self):
        model = self._fixed_prob_model([0.7, 0.7])
        assert predict(model, np.zeros((2, 8))).tolist() == [0, 0]

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((10, 8))
        model = small_model(13)
        shifted = small_model(13)
        shifted.b4 = shifted.b4 + 3.7
        np.testing.assert_array_equal(predict(model, X), predict(shifted, X))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            predict(small_model(), np.zeros((2, 9)))
