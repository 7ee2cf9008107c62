"""Benchmark of the tightdesigns command line, run in-process.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Each pass imports the program afresh (so every pass starts as cold as a new
process), builds its construction registry, then calls
`tightdesigns.cli.run(argv)` for each command of the workload with stdout
captured, and checks every printed row.  Passes repeat until --seconds would
be exceeded, at least once.  Times are reference seconds (see clock.py),
which discount changes of the host's speed.  With --trace 0 the last line
reports the end-to-end metrics of BENCHMARK.json (medians over passes); with --trace 1
untraced and traced passes alternate and it reports the per-layer metrics.
The line before it records the environment and the correctness counts; the
same record, with the spans of traced passes, is written under perfbench/out/.
Single process, no threads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import clock
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = "tightdesigns"
LAYERS = ("cli", "feasibility", "constructions", "nonexistence", "verify", "designs")
SETUP_REPEATS = 15
BUDGET_ENV = "DESIGNS_SEARCH_BUDGET"


class Command(NamedTuple):
    argv: list
    code: object
    out: str
    raw_s: float  # wall seconds
    cpu_s: float  # CPU seconds, scaled like wall_s
    wall_s: float  # reference seconds (see clock.py)
    scale: float  # wall_s / raw_s


def load_program(meter, tracer=None):
    """Import the program afresh and build its construction registry, the
    set-up every user process pays; returns the modules and the raw and
    reference seconds taken."""
    for name in [m for m in sys.modules if m == PROGRAM or m.startswith(PROGRAM + ".")]:
        del sys.modules[name]
    gc.collect()

    def setup():
        importlib.import_module(f"{PROGRAM}.cli")
        program = SimpleNamespace(**{name: sys.modules[f"{PROGRAM}.{name}"] for name in LAYERS})
        tracing.check_layers(vars(program))
        if tracer is None:
            program.nonexistence.construction_registry()
        else:
            tracer.install(vars(program))
            with tracer.span("setup"):
                program.nonexistence.construction_registry()
        return program

    program, raw, scaled, _cpu = meter.call(setup)
    return program, raw, scaled


def run_pass(program, commands, meter, tracer=None) -> list[Command]:
    """Run every command through cli.run, each timed on its own."""
    results = []
    gc.collect()
    for index, argv in enumerate(commands):
        out = io.StringIO()
        if tracer is not None:
            tracer.run_id = f"cmd{index}"

        def command():
            with redirect_stdout(out), tracer.span("cli.run") if tracer else nullcontext():
                try:
                    return program.cli.run(argv)
                except SystemExit as exc:  # argparse rejects bad argv this way
                    return exc.code

        code, raw, scaled, cpu = meter.call(command)
        scale = scaled / raw if raw > 0 else 1.0
        results.append(Command(argv, code, out.getvalue(), raw, cpu * scale, scaled, scale))
    return results


def measure(workload: str, seed: int, seconds: float, trace: bool, reference) -> dict:
    commands = workloads.commands(workload, seed)
    meter, bracketed = clock.Meter(), clock.Meter(sample=False)
    # the harness's own high-water mark, which peak_rss_mb leaves out
    harness_kb, peak_kb = max_rss_kb(), None
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        _, raw, scaled = load_program(meter)
        setup.append(scaled)
        raw_setup.append(raw)
    passes, traced, traces = [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(passes) > len(traced) else None
        pass_meter = meter if tracer is None else bracketed
        program, raw, scaled = load_program(pass_meter, tracer)
        results = run_pass(program, commands, pass_meter, tracer)
        if peak_kb is None:
            # taken after the set-ups and one pass, before the gate's checks;
            # later passes would only add what the harness fragments
            peak_kb = max_rss_kb() - harness_kb
        if tracer is not None:
            tracer.uninstall()
        tally = workloads.gate(workload, results, program, reference)
        wall = sum(c.wall_s for c in results)
        timing = {"wall_s": wall, "cpu_s": sum(c.cpu_s for c in results),
                  "rows_per_s": tally.rows / wall, "raw_wall_s": sum(c.raw_s for c in results)}
        if tracer is None:
            setup.append(scaled)
            raw_setup.append(raw)
            passes.append({**timing, **vars(tally)})
        else:
            factors = {f"cmd{i}": c.scale for i, c in enumerate(results)}
            factors["setup"] = scaled / raw
            traced.append({**tracing.layer_metrics(tracer, wall, factors), **timing,
                           **vars(tally)})
            traces.append({"spans": tracer.spans, "searches": tracer.searches,
                           "factors": factors})
        raw_walls = [p["raw_wall_s"] for p in passes + traced]
        if ((not trace or traced)
                and time.perf_counter() - start + statistics.median(raw_walls) > seconds):
            break
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    metrics = {
        "setup_s": statistics.median(setup),
        **{key: statistics.median(p[key] for p in passes)
           for key in ("wall_s", "cpu_s", "rows_per_s", "raw_wall_s")},
        "raw_setup_s": statistics.median(raw_setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    raw = {key: metrics[key] for key in ("raw_setup_s", "raw_wall_s")}
    if trace:
        layer = {key: statistics.median(p[key] for p in traced) for key in traced[0]}
        layer["trace.overhead"] = layer["wall_s"] / metrics["wall_s"]
        layer["failure_rate"] = failed / attempted
        layer["undecided"] = traced[-1]["undecided"]
        metrics = layer
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failure_rate": failed / attempted, "undecided": everything[-1]["undecided"],
        "raw": raw, "passes": everything, "setup_samples": setup, "raw_setup_samples": raw_setup,
        "metrics": metrics, "traces": traces,
    }


def max_rss_kb() -> int:
    """The process's resident-set high-water mark so far, in KiB: VmHWM of
    /proc/self/status.  getrusage's ru_maxrss would not do, as Linux keeps in
    it the parent's resident set at the fork that started this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("/proc/self/status has no VmHWM line")


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / PROGRAM),
    }


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_reference(root: Path) -> workloads.Reference:
    spec = importlib.util.spec_from_file_location("_bench_reference_table",
                                                  root / "tests" / "reference_table.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    csv_text = (root / "tests" / "data" / "parameter_table.csv").read_text()
    return workloads.Reference(list(table.REFERENCE_ROWS), csv_text)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if BUDGET_ENV in os.environ:
        print(f"error: {BUDGET_ENV} is set; it would override the workloads' search budgets",
              file=sys.stderr)
        return 2
    needed = [ROOT / "src" / PROGRAM / "cli.py", ROOT / "tests" / "reference_table.py",
              ROOT / "tests" / "data" / "parameter_table.csv", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a tightdesigns checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = declared_metrics(bool(args.trace))
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_reference(ROOT))
    if not set(units) <= set(record["metrics"]):
        raise tracing.MissingLayer(f"no value for {sorted(set(units) - set(record['metrics']))}")
    record["env"] = environment(args.seed)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, **record}, default=str) + "\n")
    print(json.dumps({"workload": args.workload, "env": record["env"],
                      "failure_rate": record["failure_rate"], "undecided": record["undecided"],
                      "passes": len(record["passes"]), "raw": record["raw"]}))
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
