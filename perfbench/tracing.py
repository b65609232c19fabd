"""Outside-in tracing of the convpred layers.

The traced run swaps selected module attributes of ``convpred`` for wrappers
that record a span around each call and update exact counters, then puts the
original attributes back. Nothing under ``src/`` knows about it. Names that a
module imports from another (``evaluation.turn_features``,
``evaluation.label_runs``, ``data_io.validate_runs``) are separate bindings
and are wrapped separately, or every call through them would be missed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

ROOT_SPAN = "workload"  # the span around one whole timed run
COUNT_SPAN = "trace.count"  # the tracer's own counting, kept out of every layer's self time
LAYERS = ("core", "data_io", "scenario", "features", "classifiers", "autoencoder", "evaluation", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans kept in memory, plus counters keyed by metric name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.rankings: dict[tuple, object] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), math.nan, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT_SPAN):
                    count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one traced call adds to a no-op: the median over a few batches.

    Multiplied by the number of spans, this is the wrapping part of the
    tracing overhead; unlike traced minus untraced wall time, run-to-run
    noise cannot swamp it.
    """
    tracer = Tracer()
    traced = tracer.wrap("noop", lambda: None)
    bare = lambda: None  # noqa: E731
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        costs.append((wrapped - (time.perf_counter() - start)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# ---- counters, each fed the bound call arguments and the result ----

def degenerate_columns(X) -> int:
    """Columns that are non-finite, or whose std is non-finite or zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    with np.errstate(all="ignore"):
        std = X.std(axis=0)
    bad = ~np.isfinite(X).all(axis=0) | ~np.isfinite(std) | (std == 0.0)
    return int(bad.sum())


def tree_nodes(tree) -> int:
    stack, count = [tree], 0
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return count


def _trainer(tracer, a, result):
    tracer.counts["classifiers.degenerate_columns"] += degenerate_columns(a["X"])


def _forest(tracer, a, result):
    _trainer(tracer, a, result)
    tracer.counts["classifiers.train_forest.nodes"] += sum(tree_nodes(t) for t in result.trees)


def _turn_features(tracer, a, result):
    tracer.counts["features.turn_features.calls"] += 1
    ranking = a["run"].turns[a["turn"] - 1]
    # holding the ranking keeps its id from being reused by another object
    tracer.rankings.setdefault((a["kind"], a.get("top_n"), id(ranking)), ranking)


def _file_bytes(metric):
    def count(tracer, a, result):
        tracer.counts[metric] += os.path.getsize(a["path"])
    return count


def _generated(tracer, a, result):
    tracer.counts["data_io.generate_synthetic.items"] += sum(
        len(turn.items) for run in result for turn in run.turns
    )


def _ae_train(tracer, a, result):
    tracer.counts["autoencoder.train.row_epochs"] += len(a["X"]) * a["config"].epochs


def _cells(tracer, a, result):
    tracer.counts["evaluation.cells"] += len(result.rows)


def _forced(tracer, a, result):
    tracer.counts["scenario.forced"] += len(result[1].forced)


# (module, attribute, span name, counter)
HOOKS = (
    ("core", "validate_runs", "core.validate_runs", None),
    ("data_io", "validate_runs", "core.validate_runs", None),
    ("data_io", "generate_synthetic", "data_io.generate_synthetic", _generated),
    ("data_io", "write_runs", "data_io.write_runs", _file_bytes("data_io.write_runs.bytes")),
    ("data_io", "read_runs", "data_io.read_runs", _file_bytes("data_io.read_runs.bytes")),
    ("scenario", "label_runs", "scenario.label_runs", None),
    ("evaluation", "label_runs", "scenario.label_runs", None),
    ("scenario", "induce_missing", "scenario.induce_missing", _forced),
    ("features", "turn_features", "features.turn_features", _turn_features),
    ("evaluation", "turn_features", "features.turn_features", _turn_features),
    ("features", "build_feature_matrix", "features.build_feature_matrix", None),
    ("features", "write_features", "features.write_features", None),
    ("classifiers", "train_forest", "classifiers.train_forest", _forest),
    ("classifiers", "train_logistic", "classifiers.train_logistic", _trainer),
    ("classifiers", "train_lasso", "classifiers.train_lasso", _trainer),
    ("classifiers", "predict_cls", "classifiers.predict_cls", None),
    ("autoencoder", "train", "autoencoder.train", _ae_train),
    ("autoencoder", "predict", "autoencoder.predict", None),
    ("evaluation", "run_turn_pair", "evaluation.run_turn_pair", _cells),
    ("evaluation", "cutoff_sensitivity", "evaluation.cutoff_sensitivity", _cells),
    ("evaluation", "write_report", "evaluation.write", None),
    ("evaluation", "write_predictions", "evaluation.write", None),
)

# span names that the benchmark records itself, around its calls into the CLI
CLI_SPANS = ("cli.label", "cli.scenario", "cli.features")
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name, _ in HOOKS] + list(CLI_SPANS)))
COUNTERS = (
    "classifiers.train_forest.nodes",
    "classifiers.degenerate_columns",
    "features.turn_features.calls",
    "data_io.write_runs.bytes",
    "data_io.read_runs.bytes",
    "data_io.generate_synthetic.items",
    "autoencoder.train.row_epochs",
    "evaluation.cells",
    "scenario.forced",
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every hooked attribute for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name, count in HOOKS:
            module = importlib.import_module(f"convpred.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, span_cost_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced workload run, as name -> (value, unit).

    ``trace.overhead_s`` is the time of the tracer's own counting spans plus
    ``span_cost_s`` (see span_cost) for every other span below the root.
    Layer self times, ``trace.unattributed_s`` and the counting spans add up
    to ``trace.wall_s``.
    """
    own = self_times(tracer.spans)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    for span, self_s in zip(tracer.spans, own):
        total[span.name] += span.end - span.start
        self_by_name[span.name] += self_s
    out = {f"{name}.s": (total[name], "s") for name in SPAN_NAMES}
    out["evaluation.run_turn_pair.self_s"] = (self_by_name["evaluation.run_turn_pair"], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for name, v in self_by_name.items() if name.split(".")[0] == layer), "s"
        )
    for name in COUNTERS:
        out[name] = (tracer.counts[name], "count" if not name.endswith(".bytes") else "bytes")
    calls = tracer.counts["features.turn_features.calls"]
    out["features.turn_features.unique_ratio"] = (
        len(tracer.rankings) / calls if calls else 0.0, "ratio"
    )
    traced_wall = total[ROOT_SPAN]
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unattributed_s"] = (self_by_name[ROOT_SPAN], "s")
    wrapped = sum(1 for span in tracer.spans if span.name not in (ROOT_SPAN, COUNT_SPAN))
    out["trace.overhead_s"] = (total[COUNT_SPAN] + wrapped * span_cost_s, "s")
    return out
