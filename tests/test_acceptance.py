"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`. The lines are written straight
to the terminal (bypassing capture) so the verdict per criterion is always
visible. Criteria A5 and A6 are qualitative direction checks averaged over
seeds; everything else is exact or tolerance-pinned.
"""

import functools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from convpred import autoencoder, classifiers, data_io, evaluation, features, scenario
from convpred.core import round_half_up
from helpers import random_ranking
from oracles import ac_brute, apr_brute, finite_diff_gradients, rv_brute, wand_brute

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

# (tag, description, verdict) per executed criterion; the conftest terminal
# summary hook prints one line each after the run (outside pytest capture)
RESULTS: list[tuple[str, str, str]] = []


def criterion(tag, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((tag, description, "FAIL"))
                raise
            RESULTS.append((tag, description, "PASS"))

        return wrapper

    return decorate


_calibration_cache = {}


def calibration_runs(seed):
    if seed not in _calibration_cache:
        _calibration_cache[seed] = data_io.generate_synthetic(data_io.calibration_config(seed=seed))
    return _calibration_cache[seed]


def separability_config(seed, pull_decay=1.0):
    """Free knobs chosen for strong class separation; pull rates and sigma pinned."""
    return data_io.GenConfig(
        n_conversations=1000, dim=4, catalogue_size=2000, n_turns=6, top_n=100,
        easy_fraction=0.5, pull_rate_easy=0.5, pull_rate_hard=0.0, noise_sigma=0.05,
        pull_decay=pull_decay, seed=seed,
    )


WIDE_AE = evaluation.EvalSettings(ae_hidden_dim=128, ae_bottleneck_dim=32)


@criterion("A1", "gradient correctness vs central finite differences")
def test_a1_gradient_correctness():
    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = autoencoder.init_model(
            autoencoder.AEConfig(hidden_dim=4, bottleneck_dim=2), 8, seed
        )
        X = rng.standard_normal((6, 8))
        y = rng.integers(0, 2, size=6)
        analytic = autoencoder.gradients(model, X, y)
        numeric = finite_diff_gradients(model, X, y, step=1e-5)
        for name in analytic:
            denom = np.maximum(1.0, np.abs(analytic[name]))
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() < 1e-4, f"model {seed} {name}: rel err {rel.max():.2e}"
    assert time.perf_counter() - start < 5.0


@criterion("A2", "autoencoder learning: loss halves and separable accuracy >= 0.85")
def test_a2_ae_learning():
    start = time.perf_counter()

    runs = calibration_runs(0)
    labels = scenario.label_runs(runs, cutoff=100)
    split = evaluation.split_conversations(
        [r.conversation_id for r in runs], labels.final_labels(), seed=0
    )
    index = {r.conversation_id: i for i, r in enumerate(runs)}
    X = features.build_feature_matrix(runs, "pooled", 5, 100).values
    X_train = X[[index[c] for c in split.train_ids]]
    y_train = np.array([labels.label_at(c, 6) for c in split.train_ids])
    [(model, trace)] = autoencoder.train(
        X_train[None], y_train[None],
        autoencoder.AEConfig(learning_rate=0.01, epochs=100), [0],
    )
    final_total = autoencoder.mean_losses(model, X_train, y_train)[2]
    assert final_total <= 0.5 * trace.total[0], (
        f"loss ratio {final_total / trace.total[0]:.3f} exceeds 0.5"
    )

    sep_runs = data_io.generate_synthetic(separability_config(seed=0))
    sep_labels = scenario.label_runs(sep_runs, cutoff=100)
    sep_split = evaluation.split_conversations(
        [r.conversation_id for r in sep_runs], sep_labels.final_labels(), seed=0
    )
    report = evaluation.run_turn_pair(
        sep_runs, sep_labels, "ae", "ae-head", sep_split, pairs=[(5, 6)],
        settings=WIDE_AE, seed=0,
    )
    accuracy = report.rows[0].accuracy
    assert accuracy >= 0.85, f"held-out accuracy {accuracy:.3f} < 0.85"
    assert time.perf_counter() - start < 60.0


@criterion("A3", "coherence measures match brute-force oracles")
def test_a3_coherence_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for case in range(100):
        n = int(rng.integers(2, 6))
        dim = int(rng.integers(6, 9))  # dim > n keeps the query-centered Gram full rank
        ranking = random_ranking(rng, n, dim, with_query=bool(rng.integers(2)))
        scores = ranking.scores.tolist()
        embs = ranking.embeddings.tolist()
        query = features.query_surrogate(ranking).tolist()

        assert features.autocorrelation(ranking) == pytest.approx(
            ac_brute(scores, embs), abs=1e-9
        ), f"case {case}: ac"
        assert features.mean_pairwise_similarity(ranking) == pytest.approx(
            wand_brute(embs), abs=1e-9
        ), f"case {case}: wand"
        assert features.reciprocal_volume(ranking) == pytest.approx(
            rv_brute(embs, query), rel=1e-6
        ), f"case {case}: rv"
        assert features.anchored_pair_ratio(ranking) == pytest.approx(
            apr_brute(embs, query), abs=1e-9
        ), f"case {case}: apr"
    assert time.perf_counter() - start < 5.0


@criterion("A4", "missing-target induction: counts, deletion, monotone labels, byte identity")
def test_a4_scenario_correctness(tmp_path):
    for seed in range(20):
        cfg = data_io.GenConfig(
            n_conversations=30, dim=4, catalogue_size=200, n_turns=5, top_n=30,
            easy_fraction=0.6, pull_rate_easy=0.7, pull_rate_hard=0.02,
            noise_sigma=0.1, seed=seed,
        )
        runs = data_io.generate_synthetic(cfg)
        labels = scenario.label_runs(runs, cutoff=30)
        for vec in labels.labels.values():
            assert all(a <= b for a, b in zip(vec, vec[1:])), "labels not monotone"
        easy = scenario.identify_easy(labels)
        if not easy:
            continue
        modified, missing = scenario.induce_missing(runs, labels, fraction=0.3, seed=seed)
        assert len(missing.forced) == round_half_up(0.3 * len(easy))
        by_id = {r.conversation_id: r for r in modified}
        for cid in missing.forced:
            run = by_id[cid]
            for ranking in run.turns:
                assert run.target_id not in ranking.items
            assert missing.labels[cid] == (0,) * run.n_turns

        before, after = tmp_path / f"a{seed}.jsonl", tmp_path / f"b{seed}.jsonl"
        data_io.write_runs(runs, before)
        data_io.write_runs(modified, after)
        for run, old_line, new_line in zip(
            runs, before.read_text().splitlines(), after.read_text().splitlines()
        ):
            if run.conversation_id not in missing.forced:
                assert old_line == new_line, f"unselected {run.conversation_id} changed"


def _mean_grid_accuracy(runs, labels, seed):
    split = evaluation.split_conversations(
        [r.conversation_id for r in runs], labels.final_labels(), seed=seed
    )
    report = evaluation.run_turn_pair(
        runs, labels, "ae", "ae-head", split,
        pairs=[(t, t + 1) for t in range(2, 10)], seed=seed,
    )
    return float(np.mean([row.accuracy for row in report.rows]))


@criterion("A5", "missing-target scenario is harder for the AE by >= 0.05")
def test_a5_scenario_difficulty_gap():
    gaps = []
    for seed in range(5):
        runs = calibration_runs(seed)
        base_labels = scenario.label_runs(runs, cutoff=100)
        base_acc = _mean_grid_accuracy(runs, base_labels, seed)
        modified, missing = scenario.induce_missing(runs, base_labels, fraction=0.3, seed=seed)
        missing_acc = _mean_grid_accuracy(modified, missing, seed)
        gaps.append(base_acc - missing_acc)
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.05, f"mean base-minus-missing gap {mean_gap:.3f} < 0.05 ({gaps})"


@criterion("A6", "multi-turn beats single-turn under early-informative generation")
def test_a6_multi_vs_single():
    multi_accs, single_accs = [], []
    for seed in range(5):
        runs = data_io.generate_synthetic(separability_config(seed=seed, pull_decay=0.75))
        labels = scenario.label_runs(runs, cutoff=100)
        split = evaluation.split_conversations(
            [r.conversation_id for r in runs], labels.final_labels(), seed=seed
        )
        multi = evaluation.run_turn_pair(
            runs, labels, "ae", "ae-head", split, pairs=[(5, 6)], settings=WIDE_AE, seed=seed
        )
        single = evaluation.run_turn_pair(
            runs, labels, "ae", "ae-head", split, pairs=[(5, 6)], settings=WIDE_AE, seed=seed,
            mode="single",
        )
        multi_accs.append(multi.rows[0].accuracy)
        single_accs.append(single.rows[0].accuracy)
    assert float(np.mean(multi_accs)) >= float(np.mean(single_accs)), (
        f"multi {multi_accs} vs single {single_accs}"
    )


@criterion("A7", "McNemar hand cases exact and symmetric")
def test_a7_mcnemar():
    def vectors(b, c, padding=4):
        actual, pa, pb = [], [], []
        actual += [1] * b; pa += [1] * b; pb += [0] * b
        actual += [1] * c; pa += [0] * c; pb += [1] * c
        actual += [0] * padding; pa += [0] * padding; pb += [0] * padding
        return pa, pb, actual

    assert evaluation.mcnemar(*vectors(10, 0)) == (8.1, True)
    assert evaluation.mcnemar(*vectors(5, 5)) == (0.1, False)
    assert evaluation.mcnemar(*vectors(0, 0)) == (0.0, False)

    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        pa = rng.integers(0, 2, n)
        pb = rng.integers(0, 2, n)
        actual = rng.integers(0, 2, n)
        assert evaluation.mcnemar(pa, pb, actual) == evaluation.mcnemar(pb, pa, actual)


PIPELINE_STEPS = [
    ["gen", "--n", "24", "--turns", "6", "--dim", "4", "--catalogue", "300",
     "--top-n", "50", "--pull-easy", "0.6", "--pull-hard", "0.01", "--sigma", "0.1",
     "--easy-fraction", "0.5", "--seed", "13", "--out", "runs.jsonl"],
    ["scenario", "--runs", "runs.jsonl", "--cutoff", "20", "--fraction", "0.3",
     "--seed", "7", "--out", "runs_mt.jsonl", "--labels", "labels_mt.csv"],
    ["eval", "--runs", "runs_mt.jsonl", "--labels", "labels_mt.csv",
     "--predictor", "ae", "--pairs", "2-5", "--seed", "5", "--epochs", "20",
     "--report", "report.csv", "--predictions", "predictions.csv"],
    ["report", "--inputs", "report.csv", "--out-csv", "grid.csv",
     "--out-text", "grid.txt"],
]


@criterion("A8", "seeded pipeline is byte-identical across invocations")
def test_a8_pipeline_determinism(tmp_path):
    outputs = {}
    for invocation in ("first", "second"):
        workdir = tmp_path / invocation
        workdir.mkdir()
        for step in PIPELINE_STEPS:
            proc = subprocess.run(
                [sys.executable, "-m", "convpred.cli", *step],
                cwd=workdir,
                env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
        outputs[invocation] = workdir
    for name in ("runs.jsonl", "runs_mt.jsonl", "labels_mt.csv", "report.csv",
                 "predictions.csv", "grid.csv", "grid.txt"):
        first = (outputs["first"] / name).read_bytes()
        second = (outputs["second"] / name).read_bytes()
        assert first == second, f"{name} differs between invocations"


@criterion("A9", "lasso shrinkage limit, normal-equations agreement, sparsity monotone")
def test_a9_lasso_behavior():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 6))
    true_beta = np.array([1.5, -2.0, 0.0, 0.75, 0.0, 0.0])
    y = (X @ true_beta + 0.3 * rng.standard_normal(60) > 0).astype(int)

    [huge] = classifiers.train_lasso(X[None], y[None], lam=1e6)
    assert np.all(huge.weights == 0.0)
    assert huge.intercept == y.mean()

    [fitted] = classifiers.train_lasso(X[None], y[None], lam=0.0, iters=5000)
    Xs = (X - fitted.input_mean) / fitted.input_scale
    design = np.hstack([np.ones((len(X), 1)), Xs])
    theta = np.linalg.solve(design.T @ design, design.T @ y)
    assert abs(fitted.intercept - theta[0]) < 1e-6
    assert np.abs(fitted.weights - theta[1:]).max() < 1e-6

    counts = []
    for lam in (0.0, 0.005, 0.02, 0.05, 0.1, 0.3, 1.0):
        counts.append(len(classifiers.train_lasso(X[None], y[None], lam=lam)[0].nonzero))
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts


@criterion("A10", "ground-truth found counts monotone over cutoffs {1, 20, 100}")
def test_a10_cutoff_monotonicity():
    run_sets = [calibration_runs(0)]
    for seed in range(3):
        run_sets.append(
            data_io.generate_synthetic(
                data_io.GenConfig(
                    n_conversations=30, dim=4, catalogue_size=300, n_turns=5,
                    top_n=100, easy_fraction=0.5, pull_rate_easy=0.6,
                    pull_rate_hard=0.02, noise_sigma=0.1, seed=seed,
                )
            )
        )
    for runs in run_sets:
        counts = [
            sum(scenario.label_runs(runs, cutoff=c).final_labels().values())
            for c in (1, 20, 100)
        ]
        assert counts == sorted(counts), counts
