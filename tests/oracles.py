"""Independent brute-force implementations used as oracles.

Everything here is written with explicit loops and elementary arithmetic,
deliberately sharing no code with the package, so agreement is meaningful.
The forest oracle is the package's earlier recursive builder, which scores
one node and one candidate feature at a time. The autoencoder training
oracle is the package's earlier loop: two forward passes and a separate
Adam update per parameter array in every epoch. The generator oracle sorts
the whole catalogue each turn, and the logistic oracle is the earlier
per-step loop with masked sigmoid branches. The run-record oracle builds a
run from a ``json.loads`` dict field by field, without the reader's helpers.
The split oracle is the package's earlier split, with a separate plain path.
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


def ae_loss_brute(model, x, label):
    """Total loss of one instance: mean squared reconstruction error plus cross-entropy."""
    x = [float(v) for v in x]
    recon, probs, _ = ae_forward_brute(model, x)
    rec = sum((r - v) ** 2 for r, v in zip(recon, x)) / len(recon)
    return rec - math.log(probs[label])


def finite_diff_gradients(model, batch, labels, step=1e-5):
    """Central differences of the mean total loss w.r.t. every parameter entry."""

    def mean_total():
        return sum(ae_loss_brute(model, x, int(y)) for x, y in zip(batch, labels)) / len(batch)

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


def ae_train_brute(X, y, config, seed):
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
    params = {name: param.copy() for name, param in init_model(config, d, seed).parameters().items()}
    moment1 = {name: np.zeros_like(p) for name, p in params.items()}
    moment2 = {name: np.zeros_like(p) for name, p in params.items()}
    history = np.empty((3, config.epochs))

    for epoch in range(config.epochs):
        _, _, _, recon, probs = _ae_forward_cache(params, batch)
        l_rec = float(((recon - batch) ** 2).mean())
        l_cls = float(-np.log(probs[np.arange(n), labels]).mean())
        history[:, epoch] = l_rec, l_cls, l_rec + l_cls

        hidden, pre_code, code, recon, probs = _ae_forward_cache(params, batch)
        d_recon = (2.0 / (n * d)) * (recon - batch)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(n), labels] = 1.0
        d_logits = (1.0 / n) * (probs - one_hot)
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
    lower, upper = v[cut[best]], v[cut[best] + 1]
    with np.errstate(invalid="ignore", over="ignore"):  # -inf + inf is NaN; a sum can overflow
        mid = 0.5 * (lower + upper)
        threshold = mid if lower < mid <= upper else upper
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
    (feature, threshold, left, right).
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


def forest_predict_brute(trees, X):
    """Majority vote of ``forest_brute`` trees per row, walking each tree node by node.

    A row goes left when its value is below the threshold, so NaN goes right;
    a leaf votes 1 only when its label-1 count is larger, and an exact tie of
    votes gives 0.
    """
    out = []
    for row in np.asarray(X, dtype=np.float64).tolist():
        votes = 0
        for node in trees:
            while len(node) == 4:
                feature, threshold, left, right = node
                node = left if row[feature] < threshold else right
            votes += 1 if node[1] > node[0] else 0
        out.append(1 if 2 * votes > len(trees) else 0)
    return out


def generate_brute(config):
    """The package's earlier generator: a full ``lexsort`` of the catalogue per turn.

    Items are ordered by score, descending, then by catalogue index; the
    ranking keeps the first top_n and the target's rank is its position in
    the full order. Only the run types come from the package.
    """
    from convpred.core import ConversationRun, TurnRanking

    root = np.random.SeedSequence(config.seed)
    cat_ss, order_ss, conv_root = root.spawn(3)
    catalogue = np.random.default_rng(cat_ss).standard_normal((config.catalogue_size, config.dim))
    norms = np.linalg.norm(catalogue, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    catalogue = catalogue / norms
    item_ids = [f"item_{i:06d}" for i in range(config.catalogue_size)]
    n = config.n_conversations
    perm = np.random.default_rng(order_ss).permutation(n)
    is_easy = np.zeros(n, dtype=bool)
    is_easy[perm[: math.ceil(config.easy_fraction * n)]] = True
    tie_break = np.arange(config.catalogue_size)
    runs = []
    for i, child in enumerate(conv_root.spawn(n)):
        rng = np.random.default_rng(child)
        target = int(rng.integers(config.catalogue_size))
        q = rng.standard_normal(config.dim)
        q /= np.linalg.norm(q) or 1.0
        base_rate = config.pull_rate_easy if is_easy[i] else config.pull_rate_hard
        turns, target_ranks = [], []
        for t in range(1, config.n_turns + 1):
            rate = base_rate * config.pull_decay ** (t - 1)
            g = rng.standard_normal(config.dim)
            q = (1.0 - rate) * q + rate * catalogue[target] + config.noise_sigma * g
            q /= np.linalg.norm(q) or 1.0
            scores = catalogue @ q
            order = np.lexsort((tie_break, -scores))
            target_ranks.append(1 + int(np.nonzero(order == target)[0][0]))
            top = order[: config.top_n]
            items = tuple(item_ids[j] for j in top)
            turns.append(TurnRanking(t, items, scores[top], catalogue[top], q.copy()))
        runs.append(ConversationRun(f"conv_{i:05d}", item_ids[target], tuple(turns),
                                    tuple(target_ranks)))
    return runs


def _json_string_brute(value, what):
    if type(value) is not str:
        raise TypeError(f"{what} must be a JSON string, got {value!r}")
    return value


def _json_numbers_brute(values, what):
    if type(values) is not list or any(type(v) not in (int, float) for v in values):
        raise TypeError(f"{what} must be JSON numbers, got {values!r}")
    return values


def run_from_record_brute(obj, where):
    """The run of one ``json.loads`` run-file record, or the reader's error.

    Each field is checked where the run-file format names it, item by item
    in item order: all ids, then all embeddings, then all scores, then the
    query and the critique. Each ranking holds its own rows. Errors carry the
    reader's messages, prefixed with ``where``. Only the run types and
    ``ValidationError`` come from the package.
    """
    from convpred.core import ConversationRun, TurnRanking, ValidationError

    try:
        cid = _json_string_brute(obj["conversation_id"], "conversation_id")
        target = _json_string_brute(obj["target_id"], "target_id")
        turns = []
        for record in obj["turns"]:
            turn = record["turn"]
            if type(turn) is not int:
                raise TypeError(f"{cid}: turn must be a JSON integer, got {turn!r}")
            items = record["items"]
            try:
                ids = tuple(_json_string_brute(item["id"], "item id") for item in items)
                rows = [_json_numbers_brute(item["embedding"], "embedding") for item in items]
                scores = _json_numbers_brute([item["score"] for item in items], "scores")
                query = record.get("query_embedding")
                if query is not None:
                    _json_numbers_brute(query, "query_embedding")
                critique = record.get("critique")
                if critique is not None:
                    _json_string_brute(critique, "critique")
            except TypeError as exc:
                raise TypeError(f"{cid} turn {turn}: {exc}") from exc
            widths = sorted({len(row) for row in rows})
            if len(widths) > 1:
                raise ValidationError(
                    f"{cid} turn {turn}: dimension mismatch among item embeddings {widths}"
                )
            try:
                turns.append(TurnRanking(turn, ids, scores, rows, query_embedding=query,
                                         critique=critique))
            except ValidationError as exc:
                raise ValidationError(f"{cid} turn {turn}: {exc}") from exc
        return ConversationRun(cid, target, tuple(turns), obj.get("target_ranks"))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: malformed run record ({exc})") from exc


def _sigmoid_brute(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_brute(X, y, lr=0.1, iters=500):
    """The package's earlier logistic loop: masked sigmoid branches and an NLL per step.

    Columns are standardized with training statistics (a constant column
    gets scale 1). Returns (weights, intercept, history), the history being
    the mean negative log-likelihood at the parameters entering each step.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = (X - mean) / scale
    n = len(y)
    w = np.zeros(Xs.shape[1])
    b = 0.0
    history = []
    for _ in range(iters):
        z = Xs @ w + b
        p = _sigmoid_brute(z)
        history.append(float((np.logaddexp(0.0, z) - y * z).mean()))
        resid = p - y
        w -= lr * (Xs.T @ resid) / n
        b -= lr * float(resid.mean())
    return w, b, tuple(history)


def split_brute(ids, final_labels, ratio=0.7, seed=0, stratified=True):
    """The package's earlier two-path split: a plain shuffle, or a largest-remainder
    allocation per label class. Returns (train ids, test ids, stratified, warnings).
    Only the error class comes from the package."""
    from convpred.core import ValidationError

    ids = sorted(ids)
    for cid, following in zip(ids, ids[1:]):
        if cid == following:
            raise ValueError(f"conversation {cid!r} is listed more than once")
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 conversations to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n_train = int(math.floor(ratio * n + 0.5))
    if not 0 < n_train < n:
        side = "train" if n_train == 0 else "test"
        raise ValueError(f"split ratio {ratio} leaves the {side} side empty for {n} conversations")
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(n)]
    warnings = ()

    if stratified:
        by_class = {}
        for cid in shuffled:
            if cid not in final_labels:
                raise ValidationError(f"labels missing conversation {cid!r}")
            by_class.setdefault(final_labels[cid], []).append(cid)
        if any(len(members) < 2 for members in by_class.values()):
            warnings = ("stratification fell back to plain shuffling: a class has < 2 members",)
            stratified = False
        else:
            quotas = {label: ratio * len(members) for label, members in by_class.items()}
            take = {label: int(np.floor(q)) for label, q in quotas.items()}
            leftover = n_train - sum(take.values())
            for label in sorted(quotas, key=lambda c: (-(quotas[c] - take[c]), c)):
                if leftover <= 0:
                    break
                take[label] += 1
                leftover -= 1
            train, test = [], []
            for label in sorted(by_class):
                members = by_class[label]
                train.extend(members[: take[label]])
                test.extend(members[take[label] :])
            return tuple(train), tuple(test), True, warnings

    return tuple(shuffled[:n_train]), tuple(shuffled[n_train:]), stratified, warnings
