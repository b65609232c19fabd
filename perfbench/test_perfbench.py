"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench -q
"""

import csv
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "protocol": lambda: workloads.Protocol(n=20, pairs="2-3", epochs=2),
    "ingest": lambda: workloads.Ingest(n=20, turns=3, dim=8),
}


def traced_run(workload, work, seed=3):
    work.mkdir()
    inputs = workload.prepare(seed, work)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with tracer.span(tracing.ROOT_SPAN):
            output = workload.execute(inputs, tracer.span)
    return tracer, workload.check(inputs, output)


def write_csv(path, header, rows):
    with path.open("w", newline="") as fh:
        fh.write("# comment\n")
        csv.writer(fh).writerows([header] + rows)


@pytest.fixture
def report_pair(tmp_path):
    report, predictions = tmp_path / "report.csv", tmp_path / "predictions.csv"
    header = ["predictor", "classifier", "scenario", "mode", "turn_train", "turn_eval",
              "cutoff", "accuracy", "n_test"]
    rows = [["apr", "forest", "base", "multi", 2, 3, 100, 0.75, 4],
            ["ae", "ae-head", "base", "multi", 2, 3, 100, 0.5, 4]]
    records = [[f"{p}|{c}|base|multi|2,3|cutoff100", f"conv_{i}", 1, int(i < hits)]
               for p, c, hits in (("apr", "forest", 3), ("ae", "ae-head", 2)) for i in range(4)]
    write_csv(predictions, ["cell_id", "conversation_id", "predicted", "actual"], records)
    return report, predictions, header, rows


def test_report_check_passes_a_consistent_report(report_pair):
    report, predictions, header, rows = report_pair
    write_csv(report, header, rows)
    assert workloads.check_report(report, predictions, n_cells=2, n_test=4) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[:1],                                 # a missing cell
    lambda rows: [rows[0][:7] + [1.5, 4], rows[1]],        # accuracy outside [0, 1]
    lambda rows: [rows[0][:7] + [0.5, 4], rows[1]],        # disagrees with its predictions
])
def test_report_check_fires_on_a_corrupted_report(report_pair, corrupt):
    report, predictions, header, rows = report_pair
    write_csv(report, header, corrupt(rows))
    assert workloads.check_report(report, predictions, n_cells=2, n_test=4)


def test_self_times_subtract_children_on_a_hand_built_tree():
    spans = [
        tracing.Span("root", 0.0, 10.0, None),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("a.child", 2.0, 3.0, 1),
        tracing.Span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_account_for_the_root_span():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span(tracing.ROOT_SPAN, 0.0, 10.0, None),
        tracing.Span("evaluation.run_turn_pair", 1.0, 8.0, 0),
        tracing.Span("classifiers.train_forest", 2.0, 6.0, 1),
        tracing.Span(tracing.COUNT_SPAN, 6.0, 6.5, 1),
    ]
    m = tracing.layer_metrics(tracer, span_cost_s=0.25)
    assert m["evaluation.run_turn_pair.s"][0] == 7.0
    assert m["evaluation.run_turn_pair.self_s"][0] == 2.5
    assert m["classifiers.self_s"][0] == 4.0
    assert m["trace.unattributed_s"][0] == 3.0
    assert m["trace.overhead_s"][0] == 0.5 + 2 * 0.25  # counting, plus two wrapped spans
    layer_self = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert layer_self + m["trace.unattributed_s"][0] + 0.5 == m["trace.wall_s"][0]


def test_span_cost_is_positive_and_small():
    assert 0.0 < tracing.span_cost(calls=2000, batches=3) < 1e-3


def test_relative_walls_divide_by_the_mean_of_the_neighbouring_reference_times():
    assert reference.relative([2.0, 6.0], [1.0, 3.0, 1.0]) == [1.0, 3.0]
    with pytest.raises(ValueError):
        reference.relative([2.0, 6.0], [1.0, 3.0])


def test_degenerate_columns_counts_non_finite_and_constant_columns():
    X = [[1.0, 5.0, 1e300, float("inf")], [2.0, 5.0, -1e300, 1.0]]
    assert tracing.degenerate_columns(X) == 3


def test_instrument_restores_every_wrapped_attribute_even_on_error():
    modules = {m: importlib.import_module(f"convpred.{m}") for m, _, _, _ in tracing.HOOKS}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.HOOKS}
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
            raise RuntimeError("boom")
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_runs_pass_checks_repeat_counters_and_restore(name, tmp_path):
    modules = {m: importlib.import_module(f"convpred.{m}") for m, _, _, _ in tracing.HOOKS}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.HOOKS}
    first, outcome = traced_run(TINY[name](), tmp_path / "a")
    second, again = traced_run(TINY[name](), tmp_path / "b")
    assert outcome.problems == [] and again.problems == []
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
    assert first.counts == second.counts and len(first.rankings) == len(second.rankings)
    assert outcome.info == again.info
    metrics = tracing.layer_metrics(first, span_cost_s=0.0)
    assert metrics["trace.wall_s"][0] > 0.0
    if name == "protocol":
        assert metrics["evaluation.cells"][0] == 2 * 8 * 2 + 3
        assert metrics["features.turn_features.unique_ratio"][0] < 1.0
    if name == "ingest":
        assert metrics["data_io.read_runs.bytes"][0] > metrics["data_io.write_runs.bytes"][0] > 0
        assert metrics["cli.scenario.s"][0] > 0.0


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span(tracing.ROOT_SPAN, 0.0, 1.0, None)]
    emitted = tracing.layer_metrics(tracer, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in emitted.values()]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
