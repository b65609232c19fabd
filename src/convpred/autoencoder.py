"""Autoencoder failure predictor.

A small encoder-decoder with a 2-way softmax head on the bottleneck code:
input -> hidden (identity activation) -> bottleneck (ReLU) -> {reconstruction,
class logits}. Training minimizes the joint loss

    total = rec_weight * mean squared reconstruction error
          + cls_weight * cross-entropy of the softmax head

with full-batch Adam. Inputs are standardized per column with train-split
statistics stored on the model; `forward`, `losses`, and `gradients` operate
in that standardized network space, while `train` and `predict` accept raw
feature rows. Training input is checked and standardized by the same helpers
in :mod:`convpred.classifiers` as every baseline trainer's.
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
    "forward",
    "forward_batch",
    "losses",
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
    rec_weight: float = 1.0
    cls_weight: float = 1.0

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


def forward(model: AEModel, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-instance forward pass; probabilities sum to 1 and are strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.config.input_dim:
        raise ValueError(f"input shape {x.shape} incompatible with input_dim {model.config.input_dim}")
    recon, probs, code = forward_batch(model, x[None, :])
    return recon[0], probs[0], code[0]


def losses(model: AEModel, x, label: int) -> tuple[float, float, float]:
    """(reconstruction, classification, total) loss for one instance."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    x = np.asarray(x, dtype=np.float64)
    recon, probs, _ = forward(model, x)
    l_rec = float(((recon - x) ** 2).mean())
    l_cls = float(-np.log(probs[label]))
    cfg = model.config
    return l_rec, l_cls, cfg.rec_weight * l_rec + cfg.cls_weight * l_cls


def _mean_losses_network(model: AEModel, batch: np.ndarray, labels: np.ndarray):
    _, _, _, recon, probs = _forward_cache(model, batch)
    l_rec = float(((recon - batch) ** 2).mean())
    l_cls = float(-np.log(probs[np.arange(len(labels)), labels]).mean())
    cfg = model.config
    return l_rec, l_cls, cfg.rec_weight * l_rec + cfg.cls_weight * l_cls


def mean_losses(model: AEModel, X, y) -> tuple[float, float, float]:
    """Mean (rec, cls, total) losses over raw rows, standardized with the model stats."""
    X, labels = check_train_input(X, y, minimum=1)
    return _mean_losses_network(model, standardize(X, model.input_mean, model.input_scale), labels)


def gradients(model: AEModel, X, y) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean total loss over a network-space batch."""
    batch, labels = check_train_input(X, y, minimum=1)
    cfg = model.config
    n, d = batch.shape

    hidden, pre_code, code, recon, probs = _forward_cache(model, batch)
    d_recon = (2.0 * cfg.rec_weight / (n * d)) * (recon - batch)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    d_logits = (cfg.cls_weight / n) * (probs - one_hot)

    grads = {
        "W3": code.T @ d_recon,
        "b3": d_recon.sum(axis=0),
        "W4": code.T @ d_logits,
        "b4": d_logits.sum(axis=0),
    }
    d_code = d_recon @ model.W3.T + d_logits @ model.W4.T
    d_pre = d_code * (pre_code > 0.0)
    grads["W2"] = hidden.T @ d_pre
    grads["b2"] = d_pre.sum(axis=0)
    d_hidden = d_pre @ model.W2.T
    grads["W1"] = batch.T @ d_hidden
    grads["b1"] = d_hidden.sum(axis=0)
    return grads


def train(X, y, config: AEConfig) -> tuple[AEModel, TrainTrace]:
    """Full-batch Adam on the joint loss; bit-reproducible given (data, config)."""
    X, labels = check_train_input(X, y)
    if X.shape[1] != config.input_dim:
        raise ValueError(f"feature width {X.shape[1]} does not match input_dim {config.input_dim}")
    batch, mean, scale = standardize_fit(X)

    model = init_model(config)
    model.input_mean, model.input_scale = mean, scale

    moment1 = {name: np.zeros_like(p) for name, p in model.parameters().items()}
    moment2 = {name: np.zeros_like(p) for name, p in model.parameters().items()}
    history = np.empty((3, config.epochs))  # rec, cls, total

    for epoch in range(config.epochs):
        history[:, epoch] = _mean_losses_network(model, batch, labels)
        grads = gradients(model, batch, labels)
        step = epoch + 1
        for name, param in model.parameters().items():
            g = grads[name]
            moment1[name] = ADAM_BETA1 * moment1[name] + (1.0 - ADAM_BETA1) * g
            moment2[name] = ADAM_BETA2 * moment2[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = moment1[name] / (1.0 - ADAM_BETA1**step)
            v_hat = moment2[name] / (1.0 - ADAM_BETA2**step)
            param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    return model, TrainTrace(*history)


def predict(model: AEModel, X) -> np.ndarray:
    """Argmax class per raw feature row; exact probability ties resolve to 0."""
    batch = standardize(X, model.input_mean, model.input_scale)
    _, probs, _ = forward_batch(model, batch)
    return np.argmax(probs, axis=1).astype(np.int64)
