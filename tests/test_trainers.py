"""The trainer layer as a whole: the four trainers share one input check, and
every model type survives a checkpoint round trip field for field."""

import dataclasses

import numpy as np
import pytest

from convpred import autoencoder, classifiers
from convpred.autoencoder import AEConfig

TRAINERS = {
    "ae-head": lambda X, y: autoencoder.train(X, y, AEConfig(input_dim=3, epochs=2)),
    "logreg": classifiers.train_logistic,
    "lasso": classifiers.train_lasso,
    "forest": lambda X, y: classifiers.train_forest(X, y, n_trees=2),
}

ROWS = np.arange(12.0).reshape(4, 3)
BAD_INPUT = {
    "empty": (np.zeros((0, 3)), [], "non-empty"),
    "misaligned": (ROWS, [0, 1, 0], "align"),
    "label 2": (ROWS, [0, 1, 2, 1], "0 or 1"),
    "fractional label": (ROWS, [0, 0.5, 1, 1], "0 or 1"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
@pytest.mark.parametrize("trainer", list(TRAINERS))
def test_trainers_reject_the_same_bad_input(trainer, case):
    X, y, message = BAD_INPUT[case]
    with pytest.raises(ValueError, match=message):
        TRAINERS[trainer](X, y)


def _depth(node) -> int:
    return 1 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


def _fit(kind):
    """A trained model of ``kind`` and rows it was not trained on."""
    rng = np.random.default_rng(21)
    if kind == "forest":
        # labels independent of a 1-D feature make trees grow deep
        X = rng.standard_normal((260, 1))
        y = rng.integers(0, 2, size=260)
        return classifiers.train_forest(X[:200], y[:200], n_trees=3, seed=5), X[200:]
    X = rng.standard_normal((80, 6))
    y = (X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.standard_normal(80) > 0).astype(int)
    if kind == "logistic":
        model = classifiers.train_logistic(X[:60], y[:60], iters=50)
    elif kind == "lasso":
        model = classifiers.train_lasso(X[:60], y[:60], lam=0.05)
    else:
        config = AEConfig(input_dim=6, hidden_dim=5, bottleneck_dim=3, learning_rate=0.02,
                          epochs=4, seed=9, rec_weight=0.5, cls_weight=2.0)
        model, _ = autoencoder.train(X[:60], y[:60], config)
    return model, X[60:]


CHECKPOINTS = {
    "logistic": (classifiers.save_linear, classifiers.load_linear, classifiers.predict_cls),
    "lasso": (classifiers.save_linear, classifiers.load_linear, classifiers.predict_cls),
    "forest": (classifiers.save_forest, classifiers.load_forest, classifiers.predict_cls),
    "autoencoder": (autoencoder.save_model, autoencoder.load_model, autoencoder.predict),
}


def _assert_same(a, b, where):
    """Field-for-field equality of two models, recursing into nested nodes."""
    if dataclasses.is_dataclass(a):
        assert type(b) is type(a), where
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and b.dtype == a.dtype, where
        np.testing.assert_array_equal(b, a, err_msg=where)
    elif isinstance(a, (list, tuple)):
        assert type(b) is type(a) and len(b) == len(a), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    else:
        assert b == a, where


@pytest.mark.parametrize("kind", list(CHECKPOINTS))
def test_checkpoint_round_trip(kind, tmp_path):
    save, load, predict = CHECKPOINTS[kind]
    model, held_out = _fit(kind)
    if kind == "forest":
        assert min(_depth(tree) for tree in model.trees) >= 10
    elif kind == "autoencoder":
        assert model.config != AEConfig(input_dim=6)
    else:
        assert model.history
        if kind == "lasso":
            assert 0 < len(model.nonzero) < len(model.weights)
    path = tmp_path / f"{kind}.json"
    save(model, path)
    back = load(path)
    _assert_same(model, back, kind)
    np.testing.assert_array_equal(predict(back, held_out), predict(model, held_out))
