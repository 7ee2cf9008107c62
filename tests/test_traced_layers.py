"""The benchmark's tracer must find every name it wraps in the program.

perfbench/tracing.py refuses to run when a traced function or a verdict
cause is gone; checking that here makes a refactor that unbinds one fail
the test suite instead of a later benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_layers_finds_every_traced_name():
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"tightdesigns.{name}")
               for name in ("cli", "feasibility", "constructions", "nonexistence", "verify",
                            "designs")}
    tracing.check_layers(modules)
