"""Autoencoder failure predictor.

A small encoder-decoder with a 2-way softmax head on the bottleneck code:
input -> hidden (identity activation) -> bottleneck (ReLU) -> {reconstruction,
class logits}. Training minimizes the joint loss

    total = rec + cls

where ``rec`` is the mean squared reconstruction error and ``cls`` the
cross-entropy of the softmax head, with full-batch Adam. Inputs are
standardized per column with train-split statistics stored on the model;
`forward_batch` and `gradients` operate in that standardized network space,
while `mean_losses`, `train` and `predict` accept raw feature rows. Training
input is checked and standardized by the same helpers in
:mod:`convpred.classifiers` as the linear trainers'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import check_train_input, standardize, standardize_fit

__all__ = [
    "AEConfig",
    "AEModel",
    "TrainTrace",
    "init_model",
    "forward_batch",
    "mean_losses",
    "gradients",
    "train",
    "predict",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4")


@dataclass(frozen=True)
class AEConfig:
    """Architecture and training settings.

    ``hidden_dim`` defaults to ceil(input_dim / 2) and ``bottleneck_dim`` to
    max(2, ceil(input_dim / 4)), giving a genuine bottleneck at every input
    width. Training is full batch, so a fixed seed makes it bit-reproducible.
    """

    input_dim: int
    hidden_dim: int | None = None
    bottleneck_dim: int | None = None
    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", max(1, -(-self.input_dim // 2)))
        if self.bottleneck_dim is None:
            object.__setattr__(self, "bottleneck_dim", max(2, -(-self.input_dim // 4)))
        if self.hidden_dim < 1 or self.bottleneck_dim < 1:
            raise ValueError("hidden_dim and bottleneck_dim must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(eq=False)
class AEModel:
    """Weights plus the train-split standardization vectors."""

    config: AEConfig
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    W4: np.ndarray
    b4: np.ndarray
    input_mean: np.ndarray
    input_scale: np.ndarray

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}


@dataclass(eq=False)
class TrainTrace:
    """Per-epoch mean losses, evaluated at the parameters entering each epoch."""

    rec: np.ndarray
    cls: np.ndarray
    total: np.ndarray


def init_model(config: AEConfig) -> AEModel:
    """Seeded uniform(-s, s) init with s = sqrt(6 / (fan_in + fan_out)) per layer."""
    rng = np.random.default_rng(config.seed)
    d, h, z = config.input_dim, config.hidden_dim, config.bottleneck_dim
    arrays = []
    for fan_in, fan_out in ((d, h), (h, z), (z, d), (z, 2)):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-s, s, (fan_in, fan_out)))
        arrays.append(rng.uniform(-s, s, fan_out))
    return AEModel(config, *arrays, input_mean=np.zeros(d), input_scale=np.ones(d))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _forward_cache(model: AEModel, batch: np.ndarray):
    hidden = batch @ model.W1 + model.b1
    pre_code = hidden @ model.W2 + model.b2
    code = np.maximum(pre_code, 0.0)
    recon = code @ model.W3 + model.b3
    probs = _softmax(code @ model.W4 + model.b4)
    return hidden, pre_code, code, recon, probs


def forward_batch(model: AEModel, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reconstructions, class probabilities, bottleneck codes) for a 2-D batch."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.config.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {model.config.input_dim}"
        )
    _, _, code, recon, probs = _forward_cache(model, batch)
    return recon, probs, code


def _mean_losses_network(batch: np.ndarray, labels: np.ndarray, cache):
    _, _, _, recon, probs = cache
    l_rec = float(((recon - batch) ** 2).mean())
    l_cls = float(-np.log(probs[np.arange(len(labels)), labels]).mean())
    return l_rec, l_cls, l_rec + l_cls


def mean_losses(model: AEModel, X, y) -> tuple[float, float, float]:
    """Mean (rec, cls, total) losses over raw rows, standardized with the model stats."""
    X, labels = check_train_input(X, y, minimum=1)
    batch = standardize(X, model.input_mean, model.input_scale)
    return _mean_losses_network(batch, labels, _forward_cache(model, batch))


def _backward(model: AEModel, batch: np.ndarray, labels: np.ndarray, cache) -> list[np.ndarray]:
    """Gradients of the mean total loss from a forward cache, in ``_PARAM_NAMES`` order."""
    n, d = batch.shape
    hidden, pre_code, code, recon, probs = cache
    d_recon = (2.0 / (n * d)) * (recon - batch)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    d_logits = (1.0 / n) * (probs - one_hot)

    d_code = d_recon @ model.W3.T + d_logits @ model.W4.T
    d_pre = d_code * (pre_code > 0.0)
    d_hidden = d_pre @ model.W2.T
    return [
        batch.T @ d_hidden, d_hidden.sum(axis=0),
        hidden.T @ d_pre, d_pre.sum(axis=0),
        code.T @ d_recon, d_recon.sum(axis=0),
        code.T @ d_logits, d_logits.sum(axis=0),
    ]


def gradients(model: AEModel, X, y) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean total loss over a network-space batch."""
    batch, labels = check_train_input(X, y, minimum=1)
    grads = _backward(model, batch, labels, _forward_cache(model, batch))
    return dict(zip(_PARAM_NAMES, grads))


def train(X, y, config: AEConfig) -> tuple[AEModel, TrainTrace]:
    """Full-batch Adam on the joint loss; bit-reproducible given (data, config).

    Each epoch runs one forward pass: its cache gives both the epoch's trace
    entry and the gradients. The parameters live in one flat vector that
    ``W1..b4`` view, so one Adam step is a few whole-vector operations. They
    are element-wise, in the same order as a per-parameter update, so the
    result is the same to the bit.
    """
    X, labels = check_train_input(X, y)
    if X.shape[1] != config.input_dim:
        raise ValueError(f"feature width {X.shape[1]} does not match input_dim {config.input_dim}")
    batch, mean, scale = standardize_fit(X)

    model = init_model(config)
    model.input_mean, model.input_scale = mean, scale
    initial = model.parameters()
    flat = np.concatenate([p.ravel() for p in initial.values()])
    offset = 0
    for name, param in initial.items():
        setattr(model, name, flat[offset : offset + param.size].reshape(param.shape))
        offset += param.size

    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    history = np.empty((3, config.epochs))  # rec, cls, total

    for epoch in range(config.epochs):
        cache = _forward_cache(model, batch)
        history[:, epoch] = _mean_losses_network(batch, labels, cache)
        g = np.concatenate([grad.ravel() for grad in _backward(model, batch, labels, cache)])
        step = epoch + 1
        moment1 = ADAM_BETA1 * moment1 + (1.0 - ADAM_BETA1) * g
        moment2 = ADAM_BETA2 * moment2 + (1.0 - ADAM_BETA2) * g * g
        m_hat = moment1 / (1.0 - ADAM_BETA1**step)
        v_hat = moment2 / (1.0 - ADAM_BETA2**step)
        flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    return model, TrainTrace(*history)


def predict(model: AEModel, X) -> np.ndarray:
    """Argmax class per raw feature row; exact probability ties resolve to 0."""
    batch = standardize(X, model.input_mean, model.input_scale)
    _, probs, _ = forward_batch(model, batch)
    return np.argmax(probs, axis=1).astype(np.int64)
