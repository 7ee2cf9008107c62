"""The package keeps to the oldest Python that pyproject.toml declares."""

import ast
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tightdesigns"


def oldest_python() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's requires-python lower bound."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_module_parses_with_the_oldest_grammar():
    sources, version = sorted(PACKAGE.glob("*.py")), oldest_python()
    assert sources
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=version)


def test_selftest_passes_on_the_oldest_python():
    version = oldest_python()
    name = "python{}.{}".format(*version)
    interpreter = shutil.which(name)
    # a version manager's shim can be on PATH with no interpreter behind it
    probe = interpreter and subprocess.run(
        [interpreter, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
        capture_output=True, text=True, timeout=60)
    if not probe or probe.returncode or probe.stdout.strip() != str(version):
        pytest.skip(f"no working {name} on PATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([interpreter, "-m", "tightdesigns.cli", "selftest"],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
