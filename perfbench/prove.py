#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 10 --workloads protocol ingest
    python3 perfbench/prove.py --seeds 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process, one after another. For every
end-to-end metric this prints the median and the quartile spread
(q3 - q1) / median over the seeds, next to the bound in BENCHMARK.json; a
spread above a third of its bound is flagged, since the benchmark is only
steady enough when a regression of the bound stands out from run-to-run
noise. ``setup_s`` is exempt from the spread rule, as it is in the
acceptance rule this mirrors; its spread is still printed. Seeds run from 1
and every run measures for BENCHMARK.json's ``run_seconds``. With --trace,
one traced run per workload (seed 1) follows and its per-layer metrics are
printed too.

With --against an earlier --out file of the same code, each median must not
be worse than the earlier one by more than its bound, and every exact counter
of the traced runs must be equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"  # where run.py leaves each run's details


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def agrees(earlier: dict, now: dict, bounds: dict) -> bool:
    """Medians within their bounds of an earlier set; traced counters identical."""
    ok = True
    for workload, summary in now.items():
        for name, bound in bounds.items():
            before = earlier[workload]["metrics"][name]["median"]
            worse = summary["metrics"][name]["median"] / before - 1.0
            flag = "" if worse <= bound else "  WORSE THAN BOUND"
            ok = ok and not flag
            print(f"{workload} {name}: median {worse:+.3f} against the earlier set{flag}")
        counters = {k: v for k, v in summary.get("per_layer", {}).items()
                    if not k.endswith("_s") and not k.endswith(".s")}
        for name, value in counters.items():
            if earlier[workload]["per_layer"][name] != value:
                ok = False
                print(f"{workload} {name}: {value} != {earlier[workload]['per_layer'][name]}")
        print(f"{workload}: {len(counters)} exact counters compared")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, help="write medians, spreads and samples here")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare with")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {}
    steady = True
    for workload in args.workloads:
        results = [run(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {sum(r['attempted'] for r in results)} attempted, "
              f"{failed} failed, all correct: {all(r['correct'] for r in results)}")
        detail = json.loads((RESULTS / f"{workload}-1-trace0.json").read_text())
        environment = detail["environment"]
        summary[workload] = {"failed": failed, "digests_first_seed": detail["digests"],
                             "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name == "setup_s":
                flag = "  (spread not bounded)"
            else:
                flag = "" if spread < bound / 3 else "  TOO WIDE"
            steady = steady and (failed == 0) and "TOO WIDE" not in flag
            print(f"  {name:12s} median {median:10.4f}  spread {spread:6.3f}  "
                  f"bound {bound:.2f}{flag}")
            summary[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "samples": values,
                "unit": results[0]["metrics"][name]["unit"],
            }
        if args.trace:
            traced = run(workload, 1, seconds, 1)
            summary[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, metric in traced["metrics"].items():
                print(f"    {name:40s} {metric['value']:.6g} {metric['unit']}")
    if args.against:
        steady = agrees(json.loads(args.against.read_text())["workloads"], summary, bounds) and steady
    if args.out:
        args.out.write_text(json.dumps({
            "seeds": [1, args.seeds],
            "seconds": seconds,
            "environment": environment,
            "workloads": summary,
        }, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
