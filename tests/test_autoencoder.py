import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred.autoencoder import (
    AEConfig,
    forward_batch,
    gradients,
    init_model,
    mean_losses,
    predict,
    train,
)
from oracles import ae_forward_brute, ae_train_brute, finite_diff_gradients


def small_model(seed=0, width=8, hidden=4, bottleneck=2):
    return init_model(AEConfig(hidden_dim=hidden, bottleneck_dim=bottleneck), width, seed)


def forward_one(model, x):
    """(reconstruction, probabilities, code) of one instance, through a one-row batch."""
    recon, probs, code = forward_batch(model, x[None, :])
    return recon[0], probs[0], code[0]


def losses_one(model, x, label):
    """(rec, cls, total) losses of one instance; an initialised model standardizes nothing."""
    return mean_losses(model, x[None, :], [label])


class TestConfig:
    def test_default_dims(self):
        assert AEConfig().widths(10) == (10, 5, 3)

    def test_default_dims_small_input(self):
        assert AEConfig().widths(3) == (3, 2, 2)

    def test_given_dims_hold_at_every_width(self):
        config = AEConfig(hidden_dim=7, bottleneck_dim=5)
        assert [config.widths(d) for d in (1, 40)] == [(1, 7, 5), (40, 7, 5)]
        assert (config.hidden_dim, config.bottleneck_dim) == (7, 5)
        assert (AEConfig().hidden_dim, AEConfig().bottleneck_dim) == (None, None)

    @pytest.mark.parametrize("setting, message", [
        (dict(learning_rate=0.0), "learning_rate must be finite and > 0, got 0.0"),
        (dict(learning_rate=math.nan), "learning_rate must be finite and > 0, got nan"),
        (dict(learning_rate=math.inf), "learning_rate must be finite and > 0, got inf"),
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(hidden_dim=0), "hidden_dim must be >= 1, got 0"),
        (dict(bottleneck_dim=-2), "bottleneck_dim must be >= 1, got -2"),
    ])
    def test_validation_names_the_value(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AEConfig(**setting)

    def test_rows_of_no_width_are_refused(self):
        with pytest.raises(ValueError, match="^rows must have width >= 1, got 0$"):
            AEConfig().widths(0)
        with pytest.raises(ValueError, match="^rows must have width >= 1, got 0$"):
            train(np.zeros((1, 3, 0)), [[0, 1, 0]], AEConfig(), [0])

    def test_seed_is_not_a_setting(self):
        """init_model and train take the seed; the config holds none."""
        with pytest.raises(TypeError, match="seed"):
            AEConfig(seed=0)

    def test_width_is_not_a_setting(self):
        """init_model takes the width and train reads it from the rows; the config holds none."""
        with pytest.raises(TypeError, match="input_dim"):
            AEConfig(input_dim=4)

    def test_one_config_trains_stacks_of_any_width(self):
        config = AEConfig(epochs=6)
        rng = np.random.default_rng(8)
        for width in (5, 12):
            X, y = rng.standard_normal((9, width)), np.arange(9) % 2
            [(model, _)] = train(X[None], y[None], config, [2])
            assert model.config is config
            assert model.W1.shape == config.widths(width)[:2]
            _assert_same_training(X, y, config, 2)


class TestForward:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_probs_normalized(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8) * 3
        _, probs, _ = forward_one(model, x)
        assert abs(float(probs.sum()) - 1.0) < 1e-12
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_relu_dead_zone(self):
        model = small_model(3)
        model.W2 = np.zeros_like(model.W2)
        model.b2 = np.full_like(model.b2, -1.0)
        x = np.random.default_rng(3).standard_normal(8)
        recon, probs, code = forward_one(model, x)
        np.testing.assert_array_equal(code, np.zeros(2))
        np.testing.assert_array_equal(recon, model.b3)
        expected = np.exp(model.b4) / np.exp(model.b4).sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8)
        recon, probs, code = forward_one(model, x)
        recon_b, probs_b, code_b = ae_forward_brute(model, x)
        np.testing.assert_allclose(recon, recon_b, atol=1e-12)
        np.testing.assert_allclose(probs, probs_b, atol=1e-12)
        np.testing.assert_allclose(code, code_b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward_batch(small_model(), np.zeros((1, 9)))


class TestLosses:
    def test_perfect_point(self):
        model = small_model(1)
        x = np.random.default_rng(1).standard_normal(8)
        _, _, code = forward_one(model, x)
        model.W3 = np.zeros_like(model.W3)
        model.b3 = x.copy()  # exact reconstruction regardless of code
        model.W4 = np.zeros_like(model.W4)
        model.b4 = np.array([1000.0, -1000.0])  # probs = (1, 0) exactly in float
        assert losses_one(model, x, 0) == (0.0, 0.0, 0.0)

    def test_uniform_logits(self):
        model = small_model(2)
        model.W4 = np.zeros_like(model.W4)
        model.b4 = np.zeros_like(model.b4)
        x = np.random.default_rng(2).standard_normal(8)
        _, l_cls, _ = losses_one(model, x, 1)
        assert l_cls == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        x = rng.standard_normal(8)
        label = int(rng.integers(2))
        recon, probs, _ = forward_one(model, x)
        l_rec, l_cls, l_tot = losses_one(model, x, label)
        assert l_rec == pytest.approx(float(np.mean((recon - x) ** 2)), abs=1e-12)
        assert l_cls == pytest.approx(-math.log(probs[label]), abs=1e-12)
        assert l_tot == pytest.approx(l_rec + l_cls, abs=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            losses_one(small_model(), np.zeros(8), 2)


@pytest.mark.parametrize("rows, labels", [(np.zeros(8), [0]), (np.zeros((2, 5)), [0, 1])],
                         ids=["1-D", "narrow"])
@pytest.mark.parametrize("function", [mean_losses, gradients])
def test_one_model_rows_are_checked_as_given(function, rows, labels):
    """The error names the caller's shape and the model's width, as forward_batch's does."""
    shape = re.escape(str(rows.shape))
    with pytest.raises(ValueError, match=f"^batch shape {shape} incompatible with model width 8$"):
        function(small_model(), rows, labels)


@pytest.mark.parametrize("function", [mean_losses, gradients])
def test_one_model_needs_a_row_and_names_the_empty_batch_as_given(function):
    with pytest.raises(ValueError, match=r"^batch shape \(0, 8\) has no rows$"):
        function(small_model(), np.zeros((0, 8)), [])
    recon, probs, code = forward_batch(small_model(), np.zeros((0, 8)))  # which takes no rows
    assert (recon.shape, probs.shape, code.shape) == ((0, 8), (0, 2), (0, 2))


def test_a_model_reads_its_width_from_its_weights():
    model = small_model(width=5, hidden=3, bottleneck=2)
    assert forward_batch(model, np.zeros((2, 5)))[0].shape == (2, 5)
    with pytest.raises(ValueError, match=r"^batch shape \(2, 8\) incompatible with model width 5$"):
        mean_losses(model, np.zeros((2, 8)), [0, 1])


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


class TestTrain:
    def test_determinism(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 8))
        y = rng.integers(0, 2, size=20)
        config = AEConfig(epochs=20)
        [(model_a, trace_a)] = train(X[None], y[None], config, [5])
        [(model_b, trace_b)] = train(X[None], y[None], config, [5])
        for name, param in model_a.parameters().items():
            np.testing.assert_array_equal(param, getattr(model_b, name))
        np.testing.assert_array_equal(trace_a.total, trace_b.total)

    def test_trace_shape_and_finiteness(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 6))
        y = rng.integers(0, 2, size=30)
        config = AEConfig(epochs=100)
        [(_, trace)] = train(X[None], y[None], config, [0])
        assert trace.total.shape == (100,)
        assert np.all(np.isfinite(trace.rec))
        assert np.all(np.isfinite(trace.cls))
        assert np.all(np.isfinite(trace.total))

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(11)
        n = 40
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        X = rng.standard_normal((n, 4)) + y[:, None] * 4.0
        config = AEConfig(epochs=100)
        [(model, trace)] = train(X[None], y[None], config, [1])
        final = mean_losses(model, X, y)
        assert final[2] < 0.5 * trace.total[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((1, 0, 4)), [[]], AEConfig(), [0])

    def test_wide_fit_keeps_no_per_epoch_arrays(self):
        """100 epochs of a 140 x 288 batch would be 32 MB as an (epochs, n, d) record."""
        rng = np.random.default_rng(14)
        X = rng.standard_normal((140, 288))
        y = np.arange(140) % 2
        tracemalloc.start()
        try:
            train(X[None], y[None], AEConfig(epochs=100), [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, f"peak {peak} bytes"


def _assert_same_training(X, y, config, seed):
    [(model, trace)] = train(np.asarray(X)[None], np.asarray(y)[None], config, [seed])
    params, history = ae_train_brute(X, y, config, seed)
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
        _assert_same_training(X, y, AEConfig(epochs=epochs), n + width)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(learning_rate=0.5),
            dict(hidden_dim=7, bottleneck_dim=5, learning_rate=0.05),
            dict(hidden_dim=1, bottleneck_dim=1),
        ],
    )
    def test_matches_with_settings(self, overrides):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((17, 12))
        X[:, 3] = 2.0  # a constant column keeps scale 1
        y = rng.integers(0, 2, size=17)
        _assert_same_training(X, y, AEConfig(epochs=20, **overrides), 4)

    def test_matches_at_the_smallest_shape(self):
        X = np.array([[0.5], [-1.5]])
        config = AEConfig(hidden_dim=1, bottleneck_dim=1, epochs=1)
        _assert_same_training(X, [0, 1], config, 2)

    def test_consecutive_fits_share_no_state(self):
        rng = np.random.default_rng(21)
        X, y = rng.standard_normal((9, 5)), np.arange(9) % 2
        config = AEConfig(epochs=15)
        [(first, first_trace)] = train(X[None], y[None], config, [3])
        kept = {name: param.copy() for name, param in first.parameters().items()}
        other = AEConfig(epochs=4)
        train(rng.standard_normal((1, 6, 3)), [np.arange(6) % 2], other, [0])
        [(second, second_trace)] = train(X[None], y[None], config, [3])
        for name, param in second.parameters().items():
            assert np.array_equal(param, kept[name]), name
            assert np.array_equal(getattr(first, name), kept[name]), name
        for name in ("rec", "cls", "total"):
            assert np.array_equal(getattr(first_trace, name), getattr(second_trace, name)), name
        _assert_same_training(X, y, config, 3)

    @given(
        st.integers(2, 30), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_on_random_shapes(self, n, width, epochs, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, width))
        y = rng.integers(0, 2, size=n)
        _assert_same_training(X, y, AEConfig(epochs=epochs), seed % 1000)


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
