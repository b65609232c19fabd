"""The benchmark's workloads: input preparation, the timed body, output checks.

Each workload loads a different layer of convpred heavily:

- ``protocol`` runs ``scripts/run_protocol.py``: the accuracy grid a researcher
  waits for, where forest training and the turn-pair evaluator do most of the
  work.
- ``ingest`` drives the CLI over an externally produced run file (no query
  embeddings, so features fall back to the centroid surrogate): label,
  scenario, features. Run-file reads, writes and validation do most of the
  work, and reads sit beside writes so that trading one for the other shows.

Sizes are below the shipped ones (protocol 25 conversations and pairs 2-3
instead of 200 and 2-9, ingest 10 conversations instead of 200), so that one
timed run takes a few seconds at most and a run's window holds a few dozen of
them. Grid rows, turns, depths and dimensions are the shipped ones.

Workloads call convpred through module attributes at call time
(``data_io.generate_synthetic(...)``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from convpred import cli, data_io

ROOT = Path(__file__).resolve().parent.parent


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _n_test(n: int, ratio: float = 0.7) -> int:
    return n - math.floor(ratio * n + 0.5)


def check_report(report: Path, predictions: Path, n_cells: int, n_test: int) -> list[str]:
    """Problems with a report/predictions pair; an empty list means it passed."""
    problems = []
    _, rows = _csv_rows(report)
    _, records = _csv_rows(predictions)
    if len(rows) != n_cells:
        problems.append(f"{report.name}: {len(rows)} rows, expected {n_cells}")
    if len(records) != n_cells * n_test:
        problems.append(f"{predictions.name}: {len(records)} records, expected {n_cells * n_test}")
    by_cell: dict[str, list[bool]] = {}
    for cell_id, _, predicted, actual in records:
        if predicted not in ("0", "1") or actual not in ("0", "1"):
            problems.append(f"{predictions.name}: non-binary record in {cell_id}")
            break
        by_cell.setdefault(cell_id, []).append(predicted == actual)
    for predictor, classifier, scen, mode, t, e, cutoff, acc, n in rows:
        value = float(acc)
        cell_id = f"{predictor}|{classifier}|{scen}|{mode}|{t},{e}|cutoff{cutoff}"
        hits = by_cell.get(cell_id, [])
        if not 0.0 <= value <= 1.0:
            problems.append(f"{cell_id}: accuracy {acc} outside [0, 1]")
        elif int(n) != n_test or len(hits) != n_test or sum(hits) / n_test != value:
            problems.append(f"{cell_id}: accuracy {acc} disagrees with its {len(hits)} predictions")
    return problems


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


@dataclass
class Outcome:
    problems: list[str]
    digests: dict[str, str]
    info: dict


class Protocol:
    """``scripts/run_protocol.py`` at its defaults except ``--n`` and ``--pairs``: 35 report cells."""

    name = "protocol"

    def __init__(self, n: int = 25, pairs: str = "2-3", epochs: int = 100):
        self.n, self.pairs, self.epochs = n, pairs, epochs

    def prepare(self, seed: int, work: Path):
        spec = importlib.util.spec_from_file_location(
            "run_protocol", ROOT / "scripts" / "run_protocol.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        argv = ["run_protocol.py", "--seed", str(seed), "--outdir", str(work), "--n", str(self.n),
                "--pairs", self.pairs, "--epochs", str(self.epochs)]
        return module, argv, work

    def execute(self, inputs, span):
        module, argv, _ = inputs
        saved, sys.argv = sys.argv, argv
        try:
            rc = _quiet(module.main)
        finally:
            sys.argv = saved
        if rc != 0:
            raise RuntimeError(f"run_protocol.py returned {rc}")

    def check(self, inputs, output) -> Outcome:
        module, _, work = inputs
        lo, _, hi = self.pairs.partition("-")
        n_pairs = int(hi or lo) - int(lo) + 1
        n_cells = 2 * len(module.GRID) * n_pairs + 3  # both scenarios, plus 3 cutoff cells
        report, predictions = work / "report.csv", work / "predictions.csv"
        problems = check_report(report, predictions, n_cells, _n_test(self.n))
        _, rows = _csv_rows(report)
        return Outcome(
            problems,
            {"report.csv": sha256(report), "predictions.csv": sha256(predictions)},
            {"accuracy": {"|".join(r[:7]): float(r[7]) for r in rows}},
        )


class Ingest:
    """CLI label, scenario and features stages over an external-style run file."""

    name = "ingest"

    def __init__(self, n: int = 10, turns: int = 10, dim: int = 32):
        self.n, self.turns, self.dim = n, turns, dim

    def prepare(self, seed: int, work: Path):
        config = data_io.GenConfig(
            n_conversations=self.n, n_turns=self.turns, dim=self.dim, catalogue_size=2000, seed=seed
        )
        # runs from outside may omit the live query vector
        runs = [
            replace(run, turns=tuple(replace(t, query_embedding=None) for t in run.turns))
            for run in data_io.generate_synthetic(config)
        ]
        paths = {name: work / name for name in
                 ("runs.jsonl", "labels.csv", "runs_mt.jsonl", "labels_mt.csv", "apr.csv")}
        data_io.write_runs(runs, paths["runs.jsonl"], header_comment=f"external-style runs seed={seed}")
        return seed, paths

    def execute(self, inputs, span):
        seed, p = inputs
        stages = (
            ("cli.label", ["label", "--runs", p["runs.jsonl"], "--out", p["labels.csv"]]),
            ("cli.scenario", ["scenario", "--runs", p["runs.jsonl"], "--fraction", "0.3",
                              "--seed", str(seed), "--out", p["runs_mt.jsonl"],
                              "--labels", p["labels_mt.csv"]]),
            ("cli.features", ["features", "--runs", p["runs_mt.jsonl"], "--predictor", "apr",
                              "--upto-turn", str(self.turns), "--out", p["apr.csv"]]),
        )
        for name, argv in stages:
            with span(name):
                rc = _quiet(cli.main, [str(a) for a in argv])
            if rc != 0:
                raise RuntimeError(f"convpred {argv[0]} returned {rc}")

    def check(self, inputs, output) -> Outcome:
        _, p = inputs
        problems = []
        forced = set()
        for labels in (p["labels.csv"], p["labels_mt.csv"]):
            _, rows = _csv_rows(labels)
            if len(rows) != self.n:
                problems.append(f"{labels.name}: {len(rows)} rows, expected {self.n}")
            for row in rows:
                vec = [int(v) for v in row[4:]]
                if len(vec) != self.turns or any(v not in (0, 1) for v in vec) or vec != sorted(vec):
                    problems.append(f"{labels.name}: {row[0]} labels not monotone 0/1: {vec}")
                if labels == p["labels_mt.csv"] and row[3] == "1":
                    forced.add(row[0])
        problems += self._check_targets_removed(p["runs_mt.jsonl"], forced)
        header, rows = _csv_rows(p["apr.csv"])
        values = [[float(v) for v in row[3:]] for row in rows]
        if len(values) != self.n or any(len(v) != self.turns for v in values) or len(header) != 3 + self.turns:
            problems.append(f"apr.csv: expected {self.n} x {self.turns} features")
        if not all(math.isfinite(v) for row in values for v in row):
            problems.append("apr.csv: non-finite feature value")
        return Outcome(problems, {"apr.csv": sha256(p["apr.csv"])}, {"forced": len(forced)})

    def _check_targets_removed(self, path: Path, forced: set[str]) -> list[str]:
        """Every forced conversation's target is absent from each of its rankings."""
        cid_pattern = re.compile(r'"conversation_id"\s*:\s*"([^"]*)"')
        seen = 0
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                seen += 1
                match = cid_pattern.search(line)
                if match is None:
                    return [f"{path.name}: record without a conversation_id"]
                if match.group(1) not in forced:
                    continue
                run = json.loads(line)
                for turn in run["turns"]:
                    if any(item["id"] == run["target_id"] for item in turn["items"]):
                        return [f"{path.name}: forced {run['conversation_id']} keeps its target"]
        if seen != self.n:
            return [f"{path.name}: {seen} conversations, expected {self.n}"]
        return []


WORKLOADS = {w.name: w for w in (Protocol, Ingest)}
