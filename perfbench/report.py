"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs `run.py` once per workload and seed, one run at a time, and prints for
every metric of BENCHMARK.json its median, first and third quartile, and the
spread (q3 - q1) / median next to the metric's bound.  Each workload's
failure rate and undecided count are printed with it.  With one seed this
is the single command that shows every end-to-end metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 400


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its record line and its result line."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the medians and quartiles here as JSON")
    args = parser.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in args.seeds]
        failures = [record["failure_rate"] for record, _ in runs]
        undecided = [record["undecided"] for record, _ in runs]
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for _, r in runs)}, "
              f"failure_rate {max(failures)}, undecided {max(undecided)}, "
              f"env {runs[0][0]['env']}")
        summary[workload] = {"seeds": args.seeds, "env": runs[0][0]["env"],
                             "failure_rate": max(failures), "undecided": max(undecided),
                             "metrics": {}}
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            values = [result["metrics"][name]["value"] for _, result in runs]
            q1, median, q3 = quartiles(values)
            bound = metric.get("bound")
            share = spread(values)
            summary[workload]["metrics"][name] = {"unit": unit, "median": median, "q1": q1,
                                                  "q3": q3, "spread": share, "values": values}
            verdict = "" if bound is None else f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}"
            print(f"  {name:48s} {median:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
