"""Independent brute-force implementations used as oracles.

Everything here is written with explicit loops and elementary arithmetic,
deliberately sharing no code with the package, so agreement is meaningful.
The forest oracle is the package's earlier recursive builder, which scores
one node and one candidate feature at a time. The autoencoder training
oracle is the package's earlier loop: two forward passes and a separate
Adam update per parameter array in every epoch.
"""

import itertools
import math

import numpy as np

GRAM_RIDGE = 1e-8


def cosine_brute(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def pearson_brute(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((v - mx) ** 2 for v in x) / n
    vy = sum((v - my) ** 2 for v in y) / n
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    return cov / math.sqrt(vx * vy)


def ac_brute(scores, embeddings):
    n = len(scores)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                weights[i][j] = max(cosine_brute(embeddings[i], embeddings[j]), 0.0)
    diffused = []
    for i in range(n):
        total = sum(weights[i])
        if total == 0.0:
            diffused.append(0.0)
        else:
            diffused.append(sum(weights[i][j] * scores[j] for j in range(n)) / total)
    return pearson_brute(scores, diffused)


def wand_brute(embeddings):
    n = len(embeddings)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += cosine_brute(embeddings[i], embeddings[j])
    return total * 2.0 / (n * (n - 1))


def det_brute(matrix):
    n = len(matrix)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for parity
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inversions % 2 else 1
        prod = 1.0
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def rv_brute(embeddings, query):
    n = len(embeddings)
    rows = [[e - q for e, q in zip(emb, query)] for emb in embeddings]
    gram = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    for i in range(n):
        gram[i][i] += GRAM_RIDGE
    return det_brute(gram) ** -0.5


def apr_brute(embeddings, query):
    n = len(embeddings)
    pair_total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pair_total += 1.0 - cosine_brute(embeddings[i], embeddings[j])
            pairs += 1
    query_total = sum(1.0 - cosine_brute(query, e) for e in embeddings)
    return (pair_total / pairs) / (query_total / n + 1e-12)


def ae_forward_brute(model, x):
    """Loop-based forward pass over the model's weight arrays."""

    def affine(vec, weight, bias):
        rows = len(weight)
        cols = len(weight[0])
        return [sum(vec[i] * weight[i][j] for i in range(rows)) + bias[j] for j in range(cols)]

    w1, b1 = model.W1.tolist(), model.b1.tolist()
    w2, b2 = model.W2.tolist(), model.b2.tolist()
    w3, b3 = model.W3.tolist(), model.b3.tolist()
    w4, b4 = model.W4.tolist(), model.b4.tolist()
    hidden = affine(list(x), w1, b1)
    pre = affine(hidden, w2, b2)
    code = [max(v, 0.0) for v in pre]
    recon = affine(code, w3, b3)
    logits = affine(code, w4, b4)
    peak = max(logits)
    exps = [math.exp(v - peak) for v in logits]
    total = sum(exps)
    probs = [v / total for v in exps]
    return recon, probs, code


def finite_diff_gradients(model, batch, labels, step=1e-5):
    """Central differences of the mean total loss w.r.t. every parameter entry."""
    from convpred.autoencoder import losses

    def mean_total():
        return sum(losses(model, x, int(y))[2] for x, y in zip(batch, labels)) / len(batch)

    grads = {}
    for name, param in model.parameters().items():
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            upper = mean_total()
            flat[idx] = original - step
            lower = mean_total()
            flat[idx] = original
            gflat[idx] = (upper - lower) / (2.0 * step)
        grads[name] = grad
    return grads


def _ae_forward_cache(params, batch):
    hidden = batch @ params["W1"] + params["b1"]
    pre_code = hidden @ params["W2"] + params["b2"]
    code = np.maximum(pre_code, 0.0)
    recon = code @ params["W3"] + params["b3"]
    logits = code @ params["W4"] + params["b4"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    return hidden, pre_code, code, recon, probs


def ae_train_brute(X, y, config):
    """Full-batch Adam as the package trained before it shared one forward pass per epoch.

    Returns the trained parameters by name and the (rec, cls, total) loss
    rows, each loss evaluated at the parameters entering its epoch. Only the
    seeded initialisation comes from the package.
    """
    from convpred.autoencoder import init_model

    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(y).astype(np.int64)
    n, d = X.shape
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    batch = (X - mean) / scale
    params = {name: param.copy() for name, param in init_model(config).parameters().items()}
    moment1 = {name: np.zeros_like(p) for name, p in params.items()}
    moment2 = {name: np.zeros_like(p) for name, p in params.items()}
    history = np.empty((3, config.epochs))

    for epoch in range(config.epochs):
        _, _, _, recon, probs = _ae_forward_cache(params, batch)
        l_rec = float(((recon - batch) ** 2).mean())
        l_cls = float(-np.log(probs[np.arange(n), labels]).mean())
        history[:, epoch] = l_rec, l_cls, config.rec_weight * l_rec + config.cls_weight * l_cls

        hidden, pre_code, code, recon, probs = _ae_forward_cache(params, batch)
        d_recon = (2.0 * config.rec_weight / (n * d)) * (recon - batch)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(n), labels] = 1.0
        d_logits = (config.cls_weight / n) * (probs - one_hot)
        grads = {
            "W3": code.T @ d_recon,
            "b3": d_recon.sum(axis=0),
            "W4": code.T @ d_logits,
            "b4": d_logits.sum(axis=0),
        }
        d_code = d_recon @ params["W3"].T + d_logits @ params["W4"].T
        d_pre = d_code * (pre_code > 0.0)
        grads["W2"] = hidden.T @ d_pre
        grads["b2"] = d_pre.sum(axis=0)
        d_hidden = d_pre @ params["W2"].T
        grads["W1"] = batch.T @ d_hidden
        grads["b1"] = d_hidden.sum(axis=0)

        step = epoch + 1
        for name, param in params.items():
            g = grads[name]
            moment1[name] = 0.9 * moment1[name] + (1.0 - 0.9) * g
            moment2[name] = 0.999 * moment2[name] + (1.0 - 0.999) * g * g
            m_hat = moment1[name] / (1.0 - 0.9**step)
            v_hat = moment2[name] / (1.0 - 0.999**step)
            param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params, history


def _gini_split_brute(values, labels):
    """Best threshold for one feature over a node's rows: (weighted gini, threshold) or None."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    ones = np.cumsum(labels[order])
    n = len(v)
    cut = np.nonzero(v[:-1] < v[1:])[0]
    if len(cut) == 0:
        return None
    n_left = cut + 1.0
    n_right = n - n_left
    left_ones = ones[cut]
    right_ones = ones[-1] - left_ones
    gini_left = 1.0 - (left_ones / n_left) ** 2 - (1.0 - left_ones / n_left) ** 2
    gini_right = 1.0 - (right_ones / n_right) ** 2 - (1.0 - right_ones / n_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    with np.errstate(invalid="ignore"):  # the midpoint of -inf and inf is NaN
        threshold = 0.5 * (v[cut[best]] + v[cut[best] + 1])
    return float(weighted[best]), threshold


def _tree_brute(X, y, idx, rng, n_candidates):
    counts = np.bincount(y[idx], minlength=2).astype(np.float64)
    if len(idx) < 2 or counts[0] == 0.0 or counts[1] == 0.0:
        return tuple(counts.tolist())
    candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
    best = None
    for f in candidates:
        scored = _gini_split_brute(X[idx, f], y[idx])
        if scored is None:
            continue
        impurity, threshold = scored
        if best is None or impurity < best[0]:
            best = (impurity, int(f), threshold)
    if best is None:
        return tuple(counts.tolist())
    _, feature, threshold = best
    mask = X[idx, feature] < threshold
    left = _tree_brute(X, y, idx[mask], rng, n_candidates)
    right = _tree_brute(X, y, idx[~mask], rng, n_candidates)
    return (feature, float(threshold), left, right)


def forest_brute(X, y, n_trees, seed):
    """The recursive random-forest builder: one bootstrap and one RNG substream per tree.

    Each node takes its sample indices with bootstrap repeats and scores each
    of its candidate features in its own sort. A tree is returned as nested
    tuples: a leaf is its class counts (c0, c1), an internal node is
    (feature, threshold, left, right). A tree that never stops splitting
    raises RecursionError.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, n_features = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(n_features)))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(_tree_brute(X, y, boot, rng, n_candidates))
    return trees
