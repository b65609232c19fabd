#!/usr/bin/env python3
"""Run one benchmark workload against the convpred sources beside this directory.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): protocol and ingest. The inputs are made from
--seed. Set-up (interpreter start, imports, input preparation) is repeated a
few times and its median reported as ``setup_s``. The timed body then runs
once to warm up and again and again until --seconds have passed (no run is
started that would end past the window). Every run's outputs are checked. A
fixed reference job (reference.py) is timed after each run, and ``wall_rel``
is the median over the timed runs of each run's wall time over the mean of
the reference times on either side of it: the host's speed drifts by up to
about 1.8x, and the reference drifts with it. The raw wall times are printed
and kept beside it. The timed body is kept to a few seconds at most, so that
a window holds a few dozen of them.

With --trace 1 the same untraced runs are followed by one traced run, which
wraps the convpred layers from outside (tracing.py) and reports per-layer
times and exact counters instead of the end-to-end metrics. The tracing
overhead is estimated from the tracer's own counting time and a calibrated
per-span cost; traced minus untraced wall time is printed beside it.

A human summary goes to stdout first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Details (samples,
environment, output digests, accuracies, spans) go to
``.perfbench/results/<workload>-<seed>-trace<0|1>.json``. Output digests and
counters are also kept in ``.perfbench/ledger.json``; a later run of the same
workload, seed, sources, Python, numpy and BLAS that disagrees with them fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import gc
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the benchmark is one single-threaded process on a small
# shared box, where idle-spinning BLAS workers make timings swing. An explicit
# setting in the environment wins; the one in force is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402  (imports numpy, so after the thread setting)
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = Path(".perfbench")  # relative to ROOT; ignored by git
SETUP_REPEATS = 5
STARTUP = "import sys; sys.path.insert(0, 'src'); import numpy, convpred.cli"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def source_fingerprint() -> str:
    """Digest of the files that decide the outputs: the program and the workloads."""
    paths = sorted(ROOT.glob("src/convpred/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    paths += [HERE / name for name in ("run.py", "workloads.py", "tracing.py")]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (None outside a repo)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "sources_sha256": source_fingerprint(),
    }


def time_startup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Run:
    wall: float
    cpu: float
    outcome: object  # workloads.Outcome, or None when the run raised
    problems: list[str]


def attempt(workload, inputs, span) -> Run:
    """One timed run of the workload, then its output checks."""
    run = Run(0.0, 0.0, None, [])
    gc.collect()  # garbage of an earlier run is not this run's work
    start, cpu = time.perf_counter(), time.process_time()
    try:
        try:
            with span(tracing.ROOT_SPAN):
                output = workload.execute(inputs, span)
        finally:
            run.wall, run.cpu = time.perf_counter() - start, time.process_time() - cpu
        run.outcome = workload.check(inputs, output)
        run.problems += run.outcome.problems
    except Exception as exc:  # a run that raises is a failed run, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        run.problems.append(f"raised {type(exc).__name__}: {exc}")
    return run


def no_span(name):
    return contextlib.nullcontext()


def compare_ledger(key: str, entry: dict) -> list[str]:
    """Check digests and counters against an earlier run of the same key, then record them."""
    path = STATE / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    earlier = ledger.get(key, {})
    problems = [
        f"{field} differ from an earlier run of the same seed and sources"
        for field in entry
        if field in earlier and earlier[field] != entry[field]
    ]
    ledger[key] = {**earlier, **entry}
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "convpred" / "__init__.py").is_file() or not (
        ROOT / "scripts" / "run_protocol.py"
    ).is_file():
        print(f"error: convpred sources not found under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports convpred, so only once src is on the path

    env = environment()
    workload = workloads.WORKLOADS[args.workload]()
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (STATE / "results").mkdir(exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            startup = time_startup()
            start = time.perf_counter()
            inputs = workload.prepare(args.seed, work)
            setups.append(startup + time.perf_counter() - start)

        runs = []  # the warm-up run first, then the timed ones
        refs = []  # the reference job, timed right after each run
        begin = time.perf_counter()
        reference.job()  # its warm-up
        while len(runs) < 2 or (
            not runs[-1].problems
            and time.perf_counter() - begin + runs[-1].wall + refs[-1] <= args.seconds
        ):
            runs.append(attempt(workload, inputs, no_span))
            refs.append(reference.timed())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [run.wall for run in runs[1:]]
        wall_s = statistics.median(walls)
        rels = reference.relative(walls, refs)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                runs.append(attempt(workload, inputs, tracer.span))
            layers = tracing.layer_metrics(tracer, tracing.span_cost())
            traced_minus_untraced = layers["trace.wall_s"][0] - wall_s

        outcomes = [run.outcome for run in runs if run.outcome is not None]
        first = outcomes[0] if outcomes else None
        for run in runs:
            if run.outcome is not None and run.outcome.digests != first.digests:
                run.problems.append("output digests differ between runs of one seed")
        entry = {"digests": first.digests} if first else {}
        if tracer is not None:
            entry["counters"] = {name: layers[name][0] for name in
                                 tracing.COUNTERS + ("features.turn_features.unique_ratio",)}
        key = "|".join([args.workload, str(args.seed), env["sources_sha256"],
                        env["python"], env["numpy"], env["blas"]])
        runs[-1].problems += compare_ledger(key, entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for run in runs if run.problems)
    if tracer is not None:
        metrics = layers
    else:
        metrics = {
            "wall_rel": (statistics.median(rels), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": {"warmup_s": runs[0].wall, "wall_s": walls, "reference_s": refs,
                    "wall_rel": rels, "cpu_s": [run.cpu for run in runs[1:1 + len(walls)]],
                    "setup_s": setups},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "problems": [p for run in runs for p in run.problems],
        "digests": first.digests if first else {},
        "info": first.info if first else {},
        "traced_minus_untraced_s": traced_minus_untraced if tracer is not None else None,
        "spans": tracer.to_json() if tracer is not None else [],
    }
    (STATE / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )

    print(f"{args.workload} seed {args.seed}: {len(runs)} run(s) attempted, "
          f"failed_runs {failed}")
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    q1, q3 = quartiles(rels)
    print(f"  wall_rel {statistics.median(rels):.4f}  (median of {len(rels)} untraced runs after "
          f"a warm-up, each over the reference job; quartiles {q1:.4f}..{q3:.4f})")
    q1, q3 = quartiles(walls)
    print(f"  wall_s  {wall_s:.4f} s  (same runs, not normalised; quartiles {q1:.4f}..{q3:.4f}; "
          f"reference job median {statistics.median(refs):.4f} s)")
    print(f"  setup_s {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups)")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    if tracer is not None:
        spans = Counter(span.name for span in tracer.spans)
        for name, (value, unit) in metrics.items():
            count = spans.get(name[:-2], 0) if name.endswith(".s") else None
            print(f"  {name:40s} {value:.6g} {unit}" + (f"  ({count} spans)" if count else ""))
        print(f"  traced minus untraced wall_s: {traced_minus_untraced:+.4f} s (one sample, noisy)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
