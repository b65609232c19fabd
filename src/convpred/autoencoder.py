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
:mod:`convpred.classifiers` as the linear trainers'. Like them, `train`
takes a stack of problems of one shape, and one seed per problem, and
fits them together. `forward_batch`, `mean_losses` and `gradients` take
one model's 2-D rows. An `AEConfig` holds no width: it is the rows'.
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
# Problems of a stack train together while their parameters number at most this
# many (256 KB per parameter-sized array; Adam sweeps six of them per epoch):
# past it, one fit's arrays outgrow a core's cache and a stack trains slower
# than its problems one at a time (measured on a 2 MB L2, 140 rows x 288 columns).
STACK_PARAMS = 2**15

_PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4")


@dataclass(frozen=True)
class AEConfig:
    """Training settings, shared by every model of a stack and by stacks of any width.

    ``widths`` gives the layer widths for rows of width d: ``hidden_dim``
    defaults to ceil(d / 2) and ``bottleneck_dim`` to max(2, ceil(d / 4)),
    giving a genuine bottleneck at every input width. The seed is an
    argument of `init_model` and `train`, not a setting; training is full
    batch, so a fixed seed makes it bit-reproducible.
    """

    hidden_dim: int | None = None
    bottleneck_dim: int | None = None
    learning_rate: float = 0.01
    epochs: int = 100

    def __post_init__(self):
        for name in ("hidden_dim", "bottleneck_dim"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    def widths(self, d: int) -> tuple[int, int, int]:
        """(input, hidden, bottleneck) widths of a model of rows of width ``d`` >= 1."""
        if d < 1:
            raise ValueError(f"rows must have width >= 1, got {d}")
        return d, self.hidden_dim or max(1, -(-d // 2)), self.bottleneck_dim or max(2, -(-d // 4))


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


def init_model(config: AEConfig, d: int, seed: int) -> AEModel:
    """A model of d-wide rows, Uniform(-s, s) per layer with s = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    d, h, z = config.widths(d)
    arrays = []
    for fan_in, fan_out in ((d, h), (h, z), (z, d), (z, 2)):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-s, s, (fan_in, fan_out)))
        arrays.append(rng.uniform(-s, s, fan_out))
    return AEModel(config, *arrays, input_mean=np.zeros(d), input_scale=np.ones(d))


def _shapes(d: int, h: int, z: int) -> list[tuple[int, ...]]:
    """The parameter shapes of widths (d, h, z) in ``_PARAM_NAMES`` order, each bias ``(fan_out,)``:
    the model's, its gradients' and those of the views of a flat parameter vector."""
    return [(d, h), (h,), (h, z), (z,), (z, d), (d,), (z, 2), (2,)]


def _stack_of_one(model: AEModel, n: int, labels=None) -> tuple[list[np.ndarray], "_Workspace"]:
    """The model's parameters as a stack of one, and a workspace for n of its rows."""
    net = [param[None] for param in model.parameters().values()]
    return net, _Workspace((*model.W1.shape, model.W2.shape[1]), 1, n, labels)


class _Workspace:
    """Every array one forward pass over a stack of P n-row batches writes and,
    given the labels, the arrays of its losses and backward pass.

    ``train`` makes one per fit and reuses it each epoch; the public functions
    make one per call, so both run the same code. ``grad`` is one flat vector
    per problem, which ``grads`` view in ``_PARAM_NAMES`` order, each with a
    leading problem axis before the shape ``_shapes`` gives it.
    """

    def __init__(self, widths: tuple[int, int, int], P: int, n: int, labels=None):
        d, h, z = widths
        self.hidden, self.recon = np.empty((P, n, h)), np.empty((P, n, d))
        self.pre_code, self.code = np.empty((P, n, z)), np.empty((P, n, z))
        self.probs, self.column = np.empty((P, n, 2)), np.empty((P, n, 1))
        if labels is None:
            return
        self.one_hot = np.stack([labels == 0, labels == 1], axis=-1).astype(np.float64)
        # flat index of each row's label probability
        self.picked = 2 * np.arange(P * n).reshape(P, n) + labels
        self.resid, self.d_hidden = np.empty((P, n, d)), np.empty((P, n, h))
        self.d_code, self.d_code_cls = np.empty((P, n, z)), np.empty((P, n, z))
        self.d_logits = np.empty((P, n, 2))
        self.active = np.empty((P, n, z), dtype=bool)
        shapes = _shapes(d, h, z)
        self.grad = np.empty((P, sum(math.prod(shape) for shape in shapes)))
        self.grads = _views(self.grad, shapes)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat vector, or of each row of a stack of them."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., offset : offset + size].reshape(flat.shape[:-1] + shape))
        offset += size
    return views


def _forward_cache(net, batch: np.ndarray, work: _Workspace) -> None:
    """Fill ``work.hidden``, ``pre_code``, ``code``, ``recon`` and ``probs`` (softmax).

    ``net`` holds the eight parameters of a stack, each with a leading
    problem axis before the shape ``_shapes`` gives it.
    """
    W1, b1, W2, b2, W3, b3, W4, b4 = net
    np.matmul(batch, W1, out=work.hidden)
    work.hidden += b1[:, None]
    np.matmul(work.hidden, W2, out=work.pre_code)
    work.pre_code += b2[:, None]
    np.maximum(work.pre_code, 0.0, out=work.code)
    np.matmul(work.code, W3, out=work.recon)
    work.recon += b3[:, None]
    probs = np.matmul(work.code, W4, out=work.probs)
    probs += b4[:, None]
    probs -= probs.max(axis=2, keepdims=True, out=work.column)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True, out=work.column)


def _rows(model: AEModel, batch, empty: bool = True) -> np.ndarray:
    """``batch`` as float64 rows of the model's width (``W1``'s rows), and unless
    ``empty`` at least one; ValueError naming its shape otherwise."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != len(model.W1):
        raise ValueError(f"batch shape {batch.shape} incompatible with model width {len(model.W1)}")
    if not (empty or len(batch)):
        raise ValueError(f"batch shape {batch.shape} has no rows")
    return batch


def forward_batch(model: AEModel, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reconstructions, class probabilities, bottleneck codes) for a 2-D batch."""
    batch = _rows(model, batch)
    net, work = _stack_of_one(model, len(batch))
    _forward_cache(net, batch[None], work)
    return work.recon[0], work.probs[0], work.code[0]


def _loss_sums(batch: np.ndarray, work: _Workspace, picked: np.ndarray) -> np.ndarray:
    """Each problem's squared-error sum of a forward pass; each row's label
    probability goes to ``picked``."""
    sq = np.subtract(work.recon, batch, out=work.resid)
    np.square(sq, out=sq)
    np.take(work.probs, work.picked, out=picked, mode="clip")
    return np.add.reduce(sq.reshape(len(sq), -1), axis=1)


def _mean_losses_network(sq_sum, picked: np.ndarray, size: int):
    """(rec, cls, total) from ``_loss_sums``' parts; leading axes give one per epoch or problem."""
    l_rec = sq_sum / size
    l_cls = -np.log(picked).mean(axis=-1)
    return l_rec, l_cls, l_rec + l_cls


def mean_losses(model: AEModel, X, y) -> tuple[float, float, float]:
    """Mean (rec, cls, total) losses over raw rows, standardized with the model stats."""
    X, labels = check_train_input(_rows(model, X, empty=False)[None], [y], minimum=1)
    batch = standardize(X[0], model.input_mean, model.input_scale)[None]
    net, work = _stack_of_one(model, len(X[0]), labels)
    _forward_cache(net, batch, work)
    picked = np.empty(labels.shape)
    losses = _mean_losses_network(_loss_sums(batch, work, picked), picked, X.size)
    return tuple(float(loss[0]) for loss in losses)


def _backward(net, batch: np.ndarray, work: _Workspace) -> None:
    """Gradients of each problem's mean total loss after ``_forward_cache``, into ``work.grads``."""
    _, n, d = batch.shape
    _, _, W2, _, W3, _, W4, _ = net
    g_W1, g_b1, g_W2, g_b2, g_W3, g_b3, g_W4, g_b4 = work.grads
    d_recon = np.subtract(work.recon, batch, out=work.resid)
    d_recon *= 2.0 / (n * d)
    d_logits = np.subtract(work.probs, work.one_hot, out=work.d_logits)
    d_logits *= 1.0 / n

    d_code = np.matmul(d_recon, W3.swapaxes(1, 2), out=work.d_code)
    d_code += np.matmul(d_logits, W4.swapaxes(1, 2), out=work.d_code_cls)
    d_code *= np.greater(work.pre_code, 0.0, out=work.active)  # now d_pre
    d_hidden = np.matmul(d_code, W2.swapaxes(1, 2), out=work.d_hidden)
    np.matmul(batch.swapaxes(1, 2), d_hidden, out=g_W1)
    d_hidden.sum(axis=1, out=g_b1)
    np.matmul(work.hidden.swapaxes(1, 2), d_code, out=g_W2)
    d_code.sum(axis=1, out=g_b2)
    np.matmul(work.code.swapaxes(1, 2), d_recon, out=g_W3)
    d_recon.sum(axis=1, out=g_b3)
    np.matmul(work.code.swapaxes(1, 2), d_logits, out=g_W4)
    d_logits.sum(axis=1, out=g_b4)


def gradients(model: AEModel, X, y) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean total loss over a network-space batch."""
    batch, labels = check_train_input(_rows(model, X, empty=False)[None], [y], minimum=1)
    net, work = _stack_of_one(model, len(batch[0]), labels)
    _forward_cache(net, batch, work)
    _backward(net, batch, work)
    return {name: grad[0] for name, grad in zip(_PARAM_NAMES, work.grads)}


def train(X, y, config: AEConfig, seeds) -> list[tuple[AEModel, TrainTrace]]:
    """Full-batch Adam on the joint loss; bit-reproducible given (data, config, seeds).

    Fits a stack of P problems, X of shape (P, n, d) and y of shape (P, n),
    and returns one ``(model, trace)`` pair per problem, each model holding
    ``config``, of the layer widths ``config.widths(d)`` and initialized
    from its problem's seed. The problems run
    every epoch's forward, backward and Adam steps together, in groups of
    at most ``STACK_PARAMS`` parameters (one problem at a time past it).

    Every array an epoch writes is made once per fit: the forward and
    backward passes fill a ``_Workspace``, whose gradients are views of one
    flat vector per problem, and the weights ``W1..b4`` are views of
    another. Adam updates its two moments and the weights in place through
    two scratch vectors. An epoch keeps only its squared-error sums and each
    row's label probability; the trace's means are taken once after the
    loop. Each expression is the one a per-parameter update of one problem
    with fresh temporaries evaluates, in the same order, so weights and
    trace are the same to the bit.
    """
    X, labels = check_train_input(X, y, seeds=seeds)
    P, n, d = X.shape
    widths = config.widths(d)
    batch, mean, scale = standardize_fit(X)

    models = [init_model(config, d, seed) for seed in seeds]
    flat = np.stack([
        np.concatenate([param.ravel() for param in model.parameters().values()]) for model in models
    ])
    for model, row, row_mean, row_scale in zip(models, flat, mean, scale):
        for name, view in zip(_PARAM_NAMES, _views(row, _shapes(*widths))):
            setattr(model, name, view)
        model.input_mean, model.input_scale = row_mean, row_scale
    sq_sums = np.empty((config.epochs, P))
    picked = np.empty((config.epochs, P, n))
    group = max(1, STACK_PARAMS // flat.shape[1])
    for lo in range(0, P, group):
        part = slice(lo, lo + group)
        _adam(flat[part], batch[part], labels[part], config, widths, sq_sums[:, part], picked[:, part])
    losses = [loss.T for loss in _mean_losses_network(sq_sums, picked, n * d)]
    return [(model, TrainTrace(*(loss[p] for loss in losses))) for p, model in enumerate(models)]


def _adam(flat, batch, labels, config: AEConfig, widths, sq_sums, picked) -> None:
    """Run ``config.epochs`` Adam steps on a stack's flat weights of ``widths`` in
    place, writing each epoch's squared-error sums and label probabilities."""
    net = _views(flat, _shapes(*widths))
    work = _Workspace(widths, *labels.shape, labels)
    g = work.grad
    moment1, moment2 = np.zeros_like(flat), np.zeros_like(flat)
    scratch1, scratch2 = np.empty_like(flat), np.empty_like(flat)
    for epoch in range(config.epochs):
        _forward_cache(net, batch, work)
        sq_sums[epoch] = _loss_sums(batch, work, picked[epoch])
        _backward(net, batch, work)
        step = epoch + 1
        moment1 *= ADAM_BETA1
        moment1 += np.multiply(1.0 - ADAM_BETA1, g, out=scratch1)
        moment2 *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=scratch2)
        moment2 += np.multiply(scratch2, g, out=scratch2)
        m_hat = np.divide(moment1, 1.0 - ADAM_BETA1**step, out=scratch1)
        v_hat = np.divide(moment2, 1.0 - ADAM_BETA2**step, out=scratch2)
        m_hat *= config.learning_rate
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat /= v_hat
        flat -= m_hat


def predict(model: AEModel, X) -> np.ndarray:
    """Argmax class per raw feature row; exact probability ties resolve to 0."""
    batch = standardize(X, model.input_mean, model.input_scale)
    _, probs, _ = forward_batch(model, batch)
    return np.argmax(probs, axis=1).astype(np.int64)
