import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from convpred.cli import main
from convpred.core import round_half_up
from convpred.data_io import read_runs
from convpred.evaluation import read_predictions, read_report
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
        assert capsys.readouterr().err == (
            f"error: labels_bad.csv: conversation '{fields[0]}': {message}\n"
        )

    @pytest.mark.parametrize("n_trees", ["0", "-2"])
    def test_forest_needs_a_tree(self, workspace, tmp_path, capsys, n_trees):
        _, runs_path, labels_path = workspace
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "score",
                          "--classifier", "forest", "--pairs", "2-2", "--n-trees", n_trees)
        assert code == 1
        assert capsys.readouterr().err == f"error: n_trees must be >= 1, got {n_trees}\n"

    def test_depth_below_the_kind_minimum(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        first = read_runs(runs_path)[0].conversation_id
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "wand",
                          "--classifier", "forest", "--pairs", "2-2", "--top-n", "1")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {first} turn 1: wand needs at least 2 items, top_n 1 keeps 1\n"
        )

    def test_ae_predictor_rejects_another_classifier(self, workspace, tmp_path, capsys):
        _, runs_path, labels_path = workspace
        code = self._eval(tmp_path, runs_path, "--labels", str(labels_path), "--predictor", "ae",
                          "--classifier", "forest", "--pairs", "2-2")
        assert code == 1
        assert capsys.readouterr().err == "error: the ae predictor implies the ae-head classifier\n"


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
        split = module.split_for(read_runs(runs_path), labels, seed=1)
        assert not split.stratified
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


def test_protocol_script_reports_training_error_in_one_line(tmp_path, capsys, monkeypatch):
    module = _load_protocol_script()
    monkeypatch.setattr("sys.argv", ["run_protocol.py", "--n", "2", "--pairs", "2-2",
                                     "--epochs", "1", "--outdir", str(tmp_path)])
    assert module.main() == 1
    assert capsys.readouterr().err == "error: training needs at least 2 sample(s)\n"


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
