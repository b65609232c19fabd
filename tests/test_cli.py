import argparse
import csv
import importlib.util
import io
import re
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from convpred.cli import build_parser, main
from convpred.core import round_half_up
from convpred.data_io import GenConfig, calibration_config, read_runs
from convpred.evaluation import EvalSettings, read_predictions, read_report
from convpred.scenario import LabelSet, identify_easy, label_runs, read_labels, write_labels

GEN_ARGS = [
    "--n", "24", "--turns", "6", "--dim", "4", "--catalogue", "300",
    "--top-n", "50", "--pull-easy", "0.6", "--pull-hard", "0.01",
    "--sigma", "0.1", "--easy-fraction", "0.5", "--seed", "13",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    runs_path = root / "runs.jsonl"
    labels_path = root / "labels.csv"
    assert main(["gen", *GEN_ARGS, "--out", str(runs_path)]) == 0
    assert main(["label", "--runs", str(runs_path), "--cutoff", "20",
                 "--out", str(labels_path)]) == 0
    return root, runs_path, labels_path


class TestGen:
    def test_record_count_and_header(self, workspace):
        _, runs_path, _ = workspace
        lines = runs_path.read_text().splitlines()
        records = [l for l in lines if not l.startswith("#")]
        assert len(records) == 24
        assert lines[0].startswith("#") and "seed=13" in lines[0]

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen", *GEN_ARGS, "--out", str(a)]) == 0
        assert main(["gen", *GEN_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_names_the_setting(self, tmp_path, capsys, sigma):
        out = tmp_path / "runs.jsonl"
        assert main(["gen", "--n", "3", "--sigma", sigma, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: noise_sigma must be finite and >= 0, got {sigma}\n"
        )
        assert not out.exists()


# each setting flag of gen and eval, its type and the config field it defaults from
GEN_SETTINGS = [("--n", int, "n_conversations"), ("--turns", int, "n_turns"), ("--dim", int, "dim"),
                ("--catalogue", int, "catalogue_size"), ("--top-n", int, "top_n"),
                ("--easy-fraction", float, "easy_fraction"), ("--pull-easy", float, "pull_rate_easy"),
                ("--pull-hard", float, "pull_rate_hard"), ("--sigma", float, "noise_sigma"),
                ("--pull-decay", float, "pull_decay"), ("--seed", int, "seed")]
EVAL_SETTINGS = [("--top-n", int, "top_n"), ("--epochs", int, "ae_epochs"),
                 ("--lr", float, "ae_learning_rate"), ("--lasso-lambda", float, "lasso_lambda"),
                 ("--n-trees", int, "n_trees")]


def _options(command):
    """The option actions of one subcommand, by flag, in the order the parser declares them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in sub.choices[command]._actions if a.option_strings}


class TestSettingFlags:
    @pytest.mark.parametrize("command, table, defaults", [
        ("gen", GEN_SETTINGS, calibration_config()),
        ("eval", EVAL_SETTINGS, EvalSettings()),
    ])
    def test_defaults_are_the_config_defaults(self, command, table, defaults):
        options = _options(command)
        for flag, kind, field in table:
            assert options[flag].type is kind, flag
            value = options[flag].default
            assert type(value) is kind and value == getattr(defaults, field), flag

    def test_gen_header_names_every_config_field_in_flag_order(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        assert main(["gen", *GEN_ARGS, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split()
        assert header[:3] == ["#", "convpred", "gen"]
        keys, values = zip(*(field.split("=") for field in header[3:]))
        assert list(keys) == [flag[2:].replace("-", "_") for flag, _, _ in GEN_SETTINGS]
        assert [flag for flag in _options("gen") if flag not in ("-h", "--out")] == [
            flag for flag, _, _ in GEN_SETTINGS]
        assert {field for _, _, field in GEN_SETTINGS} == {f.name for f in dataclasses.fields(GenConfig)}
        args = dict(zip(GEN_ARGS[::2], GEN_ARGS[1::2]))
        expected = GenConfig(**{field: kind(args[flag]) if flag in args
                                else getattr(calibration_config(), field)
                                for flag, kind, field in GEN_SETTINGS})
        assert list(values) == [str(getattr(expected, field)) for _, _, field in GEN_SETTINGS]


class TestLabelAndScenario:
    def test_label_output(self, workspace):
        _, runs_path, labels_path = workspace
        labels = read_labels(labels_path)
        assert labels.cutoff == 20
        assert labels.scenario == "base"
        assert len(labels.labels) == 24

    def test_scenario_forced_count(self, workspace, tmp_path):
        _, runs_path, _ = workspace
        out = tmp_path / "runs_mt.jsonl"
        labels_out = tmp_path / "labels_mt.csv"
        assert main(["scenario", "--runs", str(runs_path), "--cutoff", "20",
                     "--fraction", "0.3", "--seed", "7",
                     "--out", str(out), "--labels", str(labels_out)]) == 0
        runs = read_runs(runs_path)
        easy = identify_easy(label_runs(runs, cutoff=20))
        missing = read_labels(labels_out)
        assert len(missing.forced) == round_half_up(0.3 * len(easy))
        assert missing.scenario == "missing_target"
        modified = read_runs(out)
        by_id = {r.conversation_id: r for r in modified}
        for cid in missing.forced:
            run = by_id[cid]
            assert all(run.target_id not in ranking.items for ranking in run.turns)


class TestFeatures:
    def test_feature_export(self, workspace, tmp_path):
        _, runs_path, _ = workspace
        out = tmp_path / "features.csv"
        assert main(["features", "--runs", str(runs_path), "--predictor", "wand",
                     "--upto-turn", "3", "--top-n", "50", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "conversation_id,predictor,upto_turn,f_0,f_1,f_2"
        assert len(lines) == 25  # header + 24 rows

    def test_depth_below_the_kind_minimum(self, workspace, tmp_path, capsys):
        _, runs_path, _ = workspace
        first = read_runs(runs_path)[0].conversation_id
        code = main(["features", "--runs", str(runs_path), "--predictor", "ac",
                     "--upto-turn", "3", "--top-n", "1", "--out", str(tmp_path / "ac.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {first} turn 1: ac needs at least 2 items, top_n 1 keeps 1\n"
        )

    def test_top_n_below_one_names_the_setting(self, workspace, tmp_path, capsys):
        _, runs_path, _ = workspace
        code = main(["features", "--runs", str(runs_path), "--predictor", "apr",
                     "--upto-turn", "3", "--top-n", "0", "--out", str(tmp_path / "apr.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: top_n must be >= 1, got 0\n"


class TestEval:
    def _eval(self, workspace, tmp_path, name, extra):
        _, runs_path, labels_path = workspace
        report = tmp_path / f"{name}_report.csv"
        preds = tmp_path / f"{name}_preds.csv"
        code = main([
            "eval", "--runs", str(runs_path), "--labels", str(labels_path),
            "--pairs", "2-4", "--seed", "5", "--epochs", "15", "--n-trees", "10",
            "--report", str(report), "--predictions", str(preds), *extra,
        ])
        assert code == 0
        return report, preds

    def test_eval_ae(self, workspace, tmp_path):
        report, preds = self._eval(workspace, tmp_path, "ae", ["--predictor", "ae"])
        rows = read_report(report)
        assert len(rows) == 3
        assert all(r.predictor == "ae" and r.classifier == "ae-head" for r in rows)
        assert len(read_predictions(preds)) == 3 * rows[0].n_test

    def test_eval_deterministic(self, workspace, tmp_path):
        r1, p1 = self._eval(workspace, tmp_path, "det1", ["--predictor", "wand",
                                                          "--classifier", "lasso"])
        r2, p2 = self._eval(workspace, tmp_path, "det2", ["--predictor", "wand",
                                                          "--classifier", "lasso"])
        assert r1.read_bytes() == r2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_eval_cutoff_mode(self, workspace, tmp_path):
        _, runs_path, _ = workspace
        report = tmp_path / "cutoff_report.csv"
        preds = tmp_path / "cutoff_preds.csv"
        code = main([
            "eval", "--runs", str(runs_path), "--mode", "cutoff",
            "--cutoffs", "1,20,50", "--pair", "4", "--seed", "5", "--epochs", "15",
            "--report", str(report), "--predictions", str(preds),
        ])
        assert code == 0
        rows = read_report(report)
        assert [r.cutoff for r in rows] == [1, 20, 50]
        assert all(r.predictor == "ae-top1" for r in rows)


class TestEvalInputErrors:
    def _eval(self, tmp_path, runs_path, *extra):
        return main(["eval", "--runs", str(runs_path), "--seed", "5", "--epochs", "2",
                     "--report", str(tmp_path / "r.csv"), "--predictions", str(tmp_path / "p.csv"),
                     *extra])

    def test_cutoff_pair_at_last_turn(self, workspace, tmp_path, capsys):
        _, runs_path, _ = workspace
        code = self._eval(tmp_path, runs_path, "--mode", "cutoff", "--pair", "6")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "6,7" in err and "6 turns" in err

    @pytest.mark.parametrize("stratify", [[], ["--no-stratify"]])
    def test_labels_missing_a_conversation(self, workspace, tmp_path, capsys, stratify):
        _, runs_path, labels_path = workspace
        lines = labels_path.read_text().splitlines(keepends=True)
        cut = tmp_path / "labels_cut.csv"
        cut.write_text("".join(lines[:12]))  # comment, column names, 10 of 24 conversations
        kept = set(read_labels(cut).labels)
        code = self._eval(tmp_path, runs_path, "--labels", str(cut), "--predictor", "score",
                          "--classifier", "logreg", "--pairs", "2-2", *stratify)
        assert code == 1
        err = capsys.readouterr().err
        named = re.search(r"error: labels missing conversation '(\w+)'", err)
        assert named is not None, err
        assert named.group(1) not in kept

    @pytest.mark.parametrize("column, value, message", [
        (2, "x", "cutoff must be an integer >= 1, got 'x'"),
        (3, "yes", "forced must be 0 or 1, got 'yes'"),
    ])
    def test_bad_labels_field(self, workspace, tmp_path, capsys, column, value, message):
        _, runs_path, labels_path = workspace
        comment, names, first, *rest = labels_path.read_text().splitlines(keepends=True)
        fields = first.split(",")
        fields[column] = value
        bad = tmp_path / "labels_bad.csv"
        bad.write_text("".join([comment, names, ",".join(fields), *rest]))
        code = self._eval(tmp_path, runs_path, "--labels", str(bad), "--predictor", "score",
                          "--classifier", "logreg", "--pairs", "2-2")
        assert code == 1
        assert capsys.readouterr().err == f"error: labels_bad.csv: record 1: {message}\n"

    @pytest.mark.parametrize("turn_columns", [[], ["k2", "k1"]], ids=["none", "swapped"])
    def test_labels_header_other_than_the_declared_columns(self, workspace, tmp_path, capsys,
                                                           turn_columns):
        """A file without turn columns used to read to empty vectors and crash the split."""
        _, runs_path, labels_path = workspace
        comment, names, *records = labels_path.read_text().splitlines(keepends=True)
        header = names.rstrip("\n").split(",")[:4] + turn_columns
        width = len(header)
        bad = tmp_path / "labels_bad.csv"
        bad.write_text("".join([comment, ",".join(header) + "\n",
                                *(",".join(r.split(",")[:width]) + "\n" for r in records)]))
        code = self._eval(tmp_path, runs_path, "--labels", str(bad), "--predictor", "score",
                          "--classifier", "logreg", "--pairs", "2-2")
        assert code == 1
        assert capsys.readouterr().err == f"error: labels_bad.csv: unexpected labels header {header}\n"

    @pytest.mark.parametrize("n_trees", ["0", "-2"])
    def test_forest_needs_a_tree(self, workspace, tmp_path, capsys, n_trees):
        _, runs_path, labels_path = workspace
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "score",
                          "--classifier", "forest", "--pairs", "2-2", "--n-trees", n_trees)
        assert code == 1
        assert capsys.readouterr().err == f"error: n_trees must be >= 1, got {n_trees}\n"

    @pytest.mark.parametrize("row, option, value, message", [
        ("ae", "--lr", "nan", "learning_rate must be finite and > 0, got nan"),
        ("ae", "--lr", "inf", "learning_rate must be finite and > 0, got inf"),
        ("ae", "--epochs", "0", "epochs must be >= 1, got 0"),
        ("lasso", "--lasso-lambda", "nan", "lasso_lambda must be finite and >= 0, got nan"),
        ("lasso", "--lasso-lambda", "inf", "lasso_lambda must be finite and >= 0, got inf"),
        ("lasso", "--top-n", "0", "top_n must be >= 1, got 0"),
    ], ids=["lr-nan", "lr-inf", "epochs-0", "lambda-nan", "lambda-inf", "top-n-0"])
    def test_training_setting_named_before_any_cell(self, workspace, tmp_path, capsys,
                                                    row, option, value, message):
        _, runs_path, labels_path = workspace
        predictor, classifier = ("ae", "ae-head") if row == "ae" else ("apr", "lasso")
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", predictor,
                          "--classifier", classifier, "--pairs", "2-2", option, value)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_depth_below_the_kind_minimum(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        first = read_runs(runs_path)[0].conversation_id
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "wand",
                          "--classifier", "forest", "--pairs", "2-2", "--top-n", "1")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {first} turn 1: wand needs at least 2 items, top_n 1 keeps 1\n"
        )

    def test_top_n_below_one_names_the_setting(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "apr",
                          "--classifier", "logreg", "--pairs", "2-2", "--top-n", "0")
        assert code == 1
        assert capsys.readouterr().err == "error: top_n must be >= 1, got 0\n"

    def test_top_n_below_one_is_refused_before_reading_runs(self, tmp_path, capsys):
        code = self._eval(tmp_path, tmp_path / "absent.jsonl", "--predictor", "apr",
                          "--classifier", "logreg", "--pairs", "2-2", "--top-n", "0")
        assert code == 1
        assert capsys.readouterr().err == "error: top_n must be >= 1, got 0\n"

    def test_ae_predictor_rejects_another_classifier(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "ae",
                          "--classifier", "forest", "--pairs", "2-2")
        assert code == 1
        assert capsys.readouterr().err == "error: the ae predictor implies the ae-head classifier\n"


@pytest.mark.parametrize("extra", [
    ["--predictor", "score", "--classifier", "forest"],
    ["--predictor", "apr", "--classifier", "logreg", "--mode", "single"],
    ["--mode", "cutoff", "--cutoffs", "1,20,50", "--pair", "3"],
], ids=["score-forest", "apr-logreg-single", "cutoff"])
def test_eval_reads_conversation_lines_in_any_order_to_the_same_bytes(workspace, tmp_path,
                                                                     monkeypatch, extra):
    """Metamorphic: shuffling a run file's conversation lines (header kept)
    leaves every non-comment line of the report and predictions as it was."""
    _, runs_path, _ = workspace
    lines = runs_path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    order = np.random.default_rng(3).permutation(len(body))
    assert list(order) != sorted(order)
    written = []
    for name, conversations in (("written", body), ("shuffled", [body[i] for i in order])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the same relative names on both sides
        Path("runs.jsonl").write_text("".join(header + conversations), encoding="utf-8")
        assert main(["label", "--runs", "runs.jsonl", "--cutoff", "20", "--out", "labels.csv"]) == 0
        assert main([
            "eval", "--runs", "runs.jsonl", "--labels", "labels.csv", "--pairs", "2-4",
            "--seed", "5", "--epochs", "15", "--n-trees", "10",
            "--report", "report.csv", "--predictions", "predictions.csv", *extra,
        ]) == 0
        written.append([[line for line in Path(f).read_text(encoding="utf-8").splitlines()
                         if not line.startswith("#")] for f in ("report.csv", "predictions.csv")])
    assert written[0] == written[1]


def _one_found_labels(labels_path, out):
    """Labels where a single conversation is found, so stratification falls back."""
    labels = read_labels(labels_path)
    first = next(iter(labels.labels))
    vectors = {
        cid: (0,) * (len(vec) - 1) + (int(cid == first),) for cid, vec in labels.labels.items()
    }
    write_labels(LabelSet(vectors, labels.scenario, labels.cutoff), out)
    return out


class TestSplitWarnings:
    def test_eval_prints_warning_on_stderr(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        labels = _one_found_labels(labels_path, tmp_path / "one_found.csv")
        code = main(["eval", "--runs", str(runs_path), "--labels", str(labels),
                     "--predictor", "score", "--classifier", "logreg", "--pairs", "2-2",
                     "--report", str(tmp_path / "r.csv"), "--predictions", str(tmp_path / "p.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: stratification fell back to plain shuffling: a class has < 2 members\n"
        )
        assert captured.out.startswith("score/logreg base multi pair 2,3 cutoff 20: accuracy ")
        assert len(captured.out.splitlines()) == 1

    def test_protocol_script_prints_warning_on_stderr(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        module = _load_protocol_script()
        labels = read_labels(_one_found_labels(labels_path, tmp_path / "one_found.csv"))
        split = module.split_of(read_runs(runs_path), labels, seed=1)
        assert not split.stratified
        module.warn(split.warnings)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("warning: stratification fell back")


def _load_protocol_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_protocol.py"
    spec = importlib.util.spec_from_file_location("run_protocol", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSkippedPairs:
    def test_eval_names_skipped_pairs_on_stderr(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        report = tmp_path / "r.csv"
        code = main(["eval", "--runs", str(runs_path), "--labels", str(labels_path),
                     "--predictor", "score", "--classifier", "logreg", "--pairs", "2-9",
                     "--report", str(report), "--predictions", str(tmp_path / "p.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: skipped turn pairs 6,7 7,8 8,9 9,10 (runs have 6 turns)\n"
        assert [line.split(" cutoff")[0] for line in captured.out.splitlines()] == [
            f"score/logreg base multi pair {t},{t + 1}" for t in range(2, 6)
        ]
        assert [(r.turn_train, r.turn_eval) for r in read_report(report)] == [
            (t, t + 1) for t in range(2, 6)
        ]

    def test_protocol_script_names_skipped_pairs_once(self, tmp_path, capsys, monkeypatch):
        module = _load_protocol_script()
        monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "12", "--pairs", "9-10",
                                         "--epochs", "1", "--outdir", str(tmp_path)])
        assert module.main() == 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert err.count("warning: skipped turn pairs 10,11 (runs have 10 turns)") == 1
        assert all(line.startswith("warning: ") for line in err)
        rows = [line for line in captured.out.splitlines() if "mean accuracy" in line]
        assert len(rows) == 2 * len(module.GRID)
        assert len({line.index("[") for line in rows}) == 1


BAD_PAIRS = ["x", "0-3"]


def _bad_pairs_error(pairs):
    return f"error: bad --pairs range '{pairs}' (expected T or T-U with 1 <= T <= U)\n"


class TestPairsOption:
    @pytest.mark.parametrize("pairs", BAD_PAIRS)
    def test_eval_rejects_bad_pairs(self, workspace, tmp_path, capsys, pairs):
        _, runs_path, labels_path = workspace
        code = main(["eval", "--runs", str(runs_path), "--labels", str(labels_path),
                     "--predictor", "score", "--classifier", "logreg", "--pairs", pairs,
                     "--report", str(tmp_path / "r.csv"), "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == _bad_pairs_error(pairs)

    @pytest.mark.parametrize("pairs", BAD_PAIRS)
    def test_protocol_script_rejects_bad_pairs(self, tmp_path, capsys, monkeypatch, pairs):
        module = _load_protocol_script()
        outdir = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "12", "--pairs", pairs,
                                         "--outdir", str(outdir)])
        assert module.main() == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _bad_pairs_error(pairs)
        assert not outdir.exists()


def test_protocol_script_rejects_zero_epochs(tmp_path, capsys, monkeypatch):
    module = _load_protocol_script()
    outdir = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "12", "--pairs", "2-2",
                                     "--epochs", "0", "--outdir", str(outdir)])
    assert module.main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epochs must be >= 1, got 0\n"
    assert not outdir.exists()


class TestCutoffsOption:
    @pytest.mark.parametrize("cutoffs", ["1,a", "0,5"])
    def test_eval_rejects_bad_cutoffs_before_reading_runs(self, tmp_path, capsys, cutoffs):
        code = main(["eval", "--runs", str(tmp_path / "absent.jsonl"), "--mode", "cutoff",
                     "--cutoffs", cutoffs, "--report", str(tmp_path / "r.csv"),
                     "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad --cutoffs '{cutoffs}' (expected comma-separated integers >= 1)\n"
        )

    def test_eval_refuses_a_repeated_cutoff(self, workspace, tmp_path, capsys):
        _, runs_path, _ = workspace
        code = main(["eval", "--runs", str(runs_path), "--mode", "cutoff", "--cutoffs", "20,1,20",
                     "--epochs", "2", "--report", str(tmp_path / "r.csv"),
                     "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: cutoff 20 is given more than once\n"
        assert not (tmp_path / "r.csv").exists()


def test_protocol_script_run_twice_in_one_process_writes_the_same_bytes(tmp_path, monkeypatch):
    """Nothing a module keeps from the first run, such as feature rows, changes the second."""
    module = _load_protocol_script()
    outputs = []
    for outdir in (tmp_path / "first", tmp_path / "second"):
        monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "25", "--pairs", "2-3",
                                         "--outdir", str(outdir)])
        assert module.main() == 0
        outputs.append([(outdir / name).read_bytes() for name in ("report.csv", "predictions.csv")])
    assert outputs[0] == outputs[1]


def test_protocol_script_reports_training_error_in_one_line(tmp_path, capsys, monkeypatch):
    module = _load_protocol_script()
    monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "2", "--pairs", "2-2",
                                     "--epochs", "1", "--outdir", str(tmp_path)])
    assert module.main() == 1
    assert capsys.readouterr().err == (
        "error: apr|logreg|base|multi|2,3|cutoff100: training needs at least 2 sample(s)\n"
    )


class TestSplitRatio:
    @pytest.mark.parametrize("ratio, side", [("0.96", "test"), ("0.04", "train")])
    def test_ratio_leaving_a_side_empty(self, tmp_path, capsys, ratio, side):
        runs_path, labels_path = tmp_path / "runs.jsonl", tmp_path / "labels.csv"
        assert main(["gen", "--n", "10", *GEN_ARGS[2:], "--out", str(runs_path)]) == 0
        assert main(["label", "--runs", str(runs_path), "--cutoff", "20",
                     "--out", str(labels_path)]) == 0
        capsys.readouterr()
        code = main(["eval", "--runs", str(runs_path), "--labels", str(labels_path),
                     "--predictor", "score", "--classifier", "logreg", "--pairs", "2-2",
                     "--split-ratio", ratio,
                     "--report", str(tmp_path / "r.csv"), "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: split ratio {ratio} leaves the {side} side empty for 10 conversations\n"
        )


class TestTrainerErrors:
    def test_error_names_the_cell(self, tmp_path, capsys):
        # 0.05 of 12 conversations leaves 1 to train on; logistic regression needs 2
        runs_path, labels_path = tmp_path / "runs.jsonl", tmp_path / "labels.csv"
        assert main(["gen", "--n", "12", *GEN_ARGS[2:], "--out", str(runs_path)]) == 0
        assert main(["label", "--runs", str(runs_path), "--cutoff", "100",
                     "--out", str(labels_path)]) == 0
        capsys.readouterr()
        code = main(["eval", "--runs", str(runs_path), "--labels", str(labels_path),
                     "--predictor", "apr", "--classifier", "logreg", "--pairs", "2-2",
                     "--split-ratio", "0.05",
                     "--report", str(tmp_path / "r.csv"), "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: apr|logreg|base|multi|2,3|cutoff100: training needs at least 2 sample(s)\n"
        )


    def test_overflowing_rv_column_is_refused_without_a_warning(self, tmp_path, capsys):
        # rv of 100 items in 32 dimensions is about 1e265, so its column's squares overflow
        runs_path, labels_path = tmp_path / "runs.jsonl", tmp_path / "labels.csv"
        assert main(["gen", "--n", "30", "--seed", "3", "--out", str(runs_path)]) == 0
        assert main(["label", "--runs", str(runs_path), "--out", str(labels_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--runs", str(runs_path), "--labels", str(labels_path),
                         "--predictor", "rv", "--classifier", "logreg", "--pairs", "2-3",
                         "--report", str(tmp_path / "r.csv"),
                         "--predictions", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: rv|logreg|base|multi|2,3|cutoff100: column 0 has no finite spread (std inf)\n"
        )
        assert not (tmp_path / "r.csv").exists()

@pytest.fixture(scope="module")
def two_runs(workspace, tmp_path_factory):
    _, runs_path, labels_path = workspace
    root = tmp_path_factory.mktemp("cmp")
    outputs = {}
    for predictor, classifier in (("wand", "logreg"), ("score", "forest")):
        report = root / f"{predictor}_report.csv"
        preds = root / f"{predictor}_preds.csv"
        assert main([
            "eval", "--runs", str(runs_path), "--labels", str(labels_path),
            "--predictor", predictor, "--classifier", classifier,
            "--pairs", "2-4", "--seed", "5", "--epochs", "10", "--n-trees", "10",
            "--report", str(report), "--predictions", str(preds),
        ]) == 0
        outputs[predictor] = (report, preds)
    return root, outputs


def _edit_record(path, out, number, edit):
    """Copy a record file to ``out``, record ``number`` (from 1) replaced by edit(its fields)."""
    lines = path.read_text().splitlines()
    at = [i for i, line in enumerate(lines) if not line.startswith("#")][number]
    text = io.StringIO()
    csv.writer(text, lineterminator="").writerow(edit(next(csv.reader([lines[at]]))))
    lines[at] = text.getvalue()
    out.write_text("\n".join(lines) + "\n")


class TestCompareAndReport:
    def test_compare(self, two_runs, capsys):
        root, outputs = two_runs
        out_csv = root / "mcnemar.csv"
        code = main(["compare", "--a", str(outputs["wand"][1]),
                     "--b", str(outputs["score"][1]), "--out", str(out_csv)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "chi2=" in printed
        body = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "cell,accuracy_a,accuracy_b,chi2,significant"
        assert len(body) == 4  # header + 3 shared cells

    def test_compare_pooled(self, two_runs, capsys):
        root, outputs = two_runs
        code = main(["compare", "--a", str(outputs["wand"][1]),
                     "--b", str(outputs["score"][1]), "--pooled"])
        assert code == 0
        assert "pooled" in capsys.readouterr().out

    def test_report_grid(self, two_runs, capsys):
        root, outputs = two_runs
        grid_csv = root / "grid.csv"
        grid_text = root / "grid.txt"
        code = main(["report", "--inputs", str(outputs["wand"][0]),
                     str(outputs["score"][0]), "--out-csv", str(grid_csv),
                     "--out-text", str(grid_text)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "scenario: base" in printed
        rows = [l for l in grid_csv.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].startswith("scenario,predictor,classifier,mode,cutoff")
        assert "2,3" in rows[0]
        assert grid_text.read_text().startswith("#")

    @pytest.mark.parametrize("number, edit, message", [
        (1, lambda fields: fields[:5], "record 1: 5 field(s), the header names 9"),
        (2, lambda fields: fields[:8] + ["x"], "record 2: n_test must be an integer >= 1, got 'x'"),
        (3, lambda fields: fields[:7] + ["most"] + fields[8:],
         "record 3: accuracy must be a number in [0, 1], got 'most'"),
        (1, lambda fields: fields[:7] + ["nan"] + fields[8:],
         "record 1: accuracy must be a number in [0, 1], got 'nan'"),
        (2, lambda fields: fields[:7] + ["1.5"] + fields[8:],
         "record 2: accuracy must be a number in [0, 1], got '1.5'"),
        (3, lambda fields: fields[:8] + ["0"], "record 3: n_test must be an integer >= 1, got '0'"),
        (1, lambda fields: fields[:8] + ["-4"], "record 1: n_test must be an integer >= 1, got '-4'"),
        (2, lambda fields: fields[:4] + ["-2", "0", "-5"] + fields[7:],
         "record 2: turn_train must be an integer >= 1, got '-2'"),
        (3, lambda fields: fields[:5] + ["0"] + fields[6:],
         "record 3: turn_eval must be an integer >= 1, got '0'"),
        (1, lambda fields: fields[:6] + ["0"] + fields[7:],
         "record 1: cutoff must be an integer >= 1, got '0'"),
    ], ids=["short", "non-integer", "non-number", "accuracy-nan", "accuracy-1.5", "n_test-0",
            "n_test-negative", "pair-and-cutoff-negative", "turn_eval-0", "cutoff-0"])
    def test_report_names_the_bad_record(self, two_runs, tmp_path, capsys, number, edit, message):
        _, outputs = two_runs
        bad = tmp_path / "bad_report.csv"
        _edit_record(outputs["wand"][0], bad, number, edit)
        code = main(["report", "--inputs", str(outputs["score"][0]), str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad_report.csv: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda fields: fields[:3], "record 2: 3 field(s), the header names 4"),
        (lambda fields: fields[:2] + ["2", fields[3]], "record 2: predicted must be 0 or 1, got '2'"),
        (lambda fields: fields[:3] + ["yes"], "record 2: actual must be 0 or 1, got 'yes'"),
        (lambda fields: ["abc"] + fields[1:],
         "record 2: cell_id must be predictor|classifier|scenario|mode|T,E|cutoffC, got 'abc'"),
        (lambda fields: ["a|b|c"] + fields[1:],
         "record 2: cell_id must be predictor|classifier|scenario|mode|T,E|cutoffC, got 'a|b|c'"),
    ], ids=["short", "predicted-2", "actual-yes", "cell_id-one-field", "cell_id-three-fields"])
    def test_compare_names_the_bad_record(self, two_runs, tmp_path, capsys, edit, message):
        _, outputs = two_runs
        bad = tmp_path / "bad_preds.csv"
        _edit_record(outputs["score"][1], bad, 2, edit)
        code = main(["compare", "--a", str(outputs["wand"][1]), "--b", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad_preds.csv: {message}\n"

    def test_compare_refuses_a_repeated_record(self, two_runs, tmp_path, capsys):
        _, outputs = two_runs
        text = outputs["score"][1].read_text()
        cell_id, cid, predicted, actual = list(csv.reader(text.splitlines()))[-1]
        bad = tmp_path / "repeated_preds.csv"
        with bad.open("w", newline="") as fh:
            fh.write(text)
            csv.writer(fh).writerow([cell_id, cid, 1 - int(predicted), actual])
        code = main(["compare", "--a", str(outputs["wand"][1]), "--b", str(bad)])
        assert code == 1
        cell = cell_id.split("|", 2)[2]
        assert capsys.readouterr().err == f"error: cell {cell}: side b has two records for '{cid}'\n"

    def test_compare_refuses_several_grid_rows_in_one_file(self, two_runs, tmp_path, capsys):
        """Both predictors' records in one file hold each shared cell's conversations twice."""
        _, outputs = two_runs
        wand_lines = [l for l in outputs["wand"][1].read_text().splitlines() if not l.startswith("#")]
        both = tmp_path / "grid_preds.csv"
        both.write_text(outputs["score"][1].read_text() + "\n".join(wand_lines[1:]) + "\n")
        code = main(["compare", "--a", str(both), "--b", str(outputs["wand"][1])])
        assert code == 1
        cell_id, cid = next(csv.reader(wand_lines[1:]))[:2]
        cell = cell_id.split("|", 2)[2]
        assert capsys.readouterr().err == f"error: cell {cell}: side a has two records for '{cid}'\n"

    def test_report_refuses_a_cell_that_two_rows_give(self, two_runs, tmp_path, capsys):
        _, outputs = two_runs
        report = outputs["score"][0]
        code = main(["report", "--inputs", str(outputs["wand"][0]), str(report), str(report),
                     "--out-csv", str(tmp_path / "grid.csv")])
        assert code == 1
        first = read_report(report)[0]
        assert capsys.readouterr().err == (
            f"error: two report rows give cell score|forest|{first.scenario}|{first.mode}|"
            f"{first.turn_train},{first.turn_eval}|cutoff{first.cutoff}\n"
        )
        assert not (tmp_path / "grid.csv").exists()

    def test_compare_refuses_a_report_as_predictions(self, two_runs, capsys):
        _, outputs = two_runs
        code = main(["compare", "--a", str(outputs["wand"][0]), "--b", str(outputs["score"][1])])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: wand_report.csv: unexpected predictions header ['predictor', 'classifier',"
            " 'scenario', 'mode', 'turn_train', 'turn_eval', 'cutoff', 'accuracy', 'n_test']\n"
        )


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--nope", "3"])
        assert err.value.code == 2

    def test_missing_file_returns_one(self, tmp_path, capsys):
        code = main(["label", "--runs", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_validation_failure_returns_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"conversation_id": "c0"}\n')
        code = main(["label", "--runs", str(bad), "--out", str(tmp_path / "l.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_file_that_is_not_utf8_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'# runs\n{"conversation_id": "c\xff0"}\n')
        code = main(["label", "--runs", str(bad), "--out", str(tmp_path / "l.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: bad.jsonl line 2: not UTF-8 ('utf-8' codec can't decode byte 0xff"
            " in position 22: invalid start byte)\n"
        )

    def test_integer_too_long_to_convert_names_the_line(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        assert main(["gen", *GEN_ARGS, "--out", str(runs)]) == 0
        lines = runs.read_text().splitlines(keepends=True)
        lines[2] = re.sub(r'"score":[^,]+', '"score":' + "9" * 5000, lines[2], count=1)
        runs.write_text("".join(lines))
        capsys.readouterr()
        code = main(["label", "--runs", str(runs), "--out", str(tmp_path / "l.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: runs.jsonl line 3: invalid JSON (")

    @pytest.mark.parametrize("command", [
        ["label", "--out", "labels.csv"],
        ["features", "--predictor", "wand", "--upto-turn", "2", "--out", "features.csv"],
    ], ids=["label", "features"])
    def test_header_only_run_file_holds_no_conversations(self, tmp_path, capsys, command):
        runs = tmp_path / "header_only.jsonl"
        runs.write_text("# convpred gen n=0\n")
        *args, out = command
        code = main(args + [str(tmp_path / out), "--runs", str(runs)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {runs} holds no conversations\n"
        assert not (tmp_path / out).exists()
