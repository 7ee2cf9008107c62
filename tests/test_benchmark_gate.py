"""The benchmark's correctness gate passes on one pass of every workload.

perfbench/workloads.py checks every row a workload prints, against the
repository's reference table and through the program's own modules (the
registry, `check_shell_config`); running it here makes a change that fails
the gate fail the test suite instead of a later benchmark run.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LAYERS = ("cli", "feasibility", "constructions", "nonexistence", "verify", "designs")


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, loaded with its directory on the path; the benchmark
    modules it imports by their bare names are dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {name for name in ("clock", "tracing", "workloads") if name in sys.modules}
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in {"clock", "tracing", "workloads"} - loaded:
        sys.modules.pop(name, None)


def test_every_workload_passes_its_gate(bench):
    # one pass of seed 1 through cli.run in this process, the package imported once
    workloads = bench.workloads
    reference = bench.load_reference(ROOT)
    program = SimpleNamespace(**{name: importlib.import_module(f"tightdesigns.{name}")
                                 for name in LAYERS})
    for workload in workloads.WORKLOADS:
        results = []
        for argv in workloads.commands(workload, 1):
            out = io.StringIO()
            with redirect_stdout(out):
                code = program.cli.run(argv)
            results.append((argv, code, out.getvalue()))
        tally = workloads.gate(workload, results, program, reference)
        assert tally.attempted > 0 and tally.failed == 0, (workload, tally)
