import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tightdesigns import cli
from tightdesigns.designs import load
from tightdesigns.feasibility import parse_csv


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n-min", "6", "--n-max", "6",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["6", "2", "3", "3", "4", "4", "4", "3", "1", "3", "1"]


def test_enumerate_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n-min", "6", "--n-max", "12")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12  # 2 + 4 + 6 rows for n = 6, 10, 12


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n-min", "10", "--n-max", "10",
                           "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["w"] == "2/3"


def test_construct_then_verify(capsys, tmp_path):
    target = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "construct", "hadamard", "--m", "3",
                           "--out", str(target))
    assert code == 0 and "verified design in H(6,2)" in out
    code, out, _ = run_cli(capsys, "verify", "--design", str(target), "--t", "2")
    assert code == 0
    assert "moments_check (t=2): pass" in out
    assert "tight" in out
    design = load(target.read_bytes())
    assert design.n == 6 and design.size == 7


def test_construct_symmetric_variants(capsys, tmp_path):
    residual = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "construct", "symmetric", "--plane", "2",
                         "--out", str(residual))
    assert code == 0
    complemented = tmp_path / "c.json"
    code, _, _ = run_cli(capsys, "construct", "symmetric", "--plane", "2",
                         "--variant", "complemented", "--out", str(complemented))
    assert code == 0
    assert load(residual.read_bytes()) != load(complemented.read_bytes())
    paley = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "construct", "symmetric", "--paley", "11",
                         "--complement", "--out", str(paley))
    assert code == 0


def test_construct_rejects_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "construct", "hadamard", "--m", "4",
                           "--out", str(tmp_path / "x.json"))
    assert code == 2 and "m = 3 (mod 4)" in err


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "points": ["1100", "1100"], "weights": ["1", "1"]}')
    code, _, err = run_cli(capsys, "verify", "--design", str(bad))
    assert code == 2 and "duplicate" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--design", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_failing_design(capsys, tmp_path):
    # two arbitrary shells do not satisfy the design conditions
    bad = tmp_path / "notdesign.json"
    bad.write_text('{"n": 6, "points": ["110000", "111000"], "weights": ["1", "1"]}')
    code, out, _ = run_cli(capsys, "verify", "--design", str(bad))
    assert code == 1
    assert "FAIL" in out or "NOT" in out


def test_decide_n27(capsys):
    code, out, _ = run_cli(capsys, "decide", "--n", "27")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and all("REFUTED" in line for line in lines)


def test_decide_single_row_json(capsys):
    code, out, _ = run_cli(capsys, "decide", "--n", "14", "--row-index", "1",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "found" and obj["row"]["w"] == "1/2"


def test_decide_row_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "decide", "--n", "6", "--row-index", "5")
    assert code == 2 and "outside" in err


def test_decide_budget_flag_and_env(capsys, monkeypatch):
    # row 24(1) is outside the construction catalog, so it needs the search;
    # one node is never enough and the exit code must signal the exhaustion
    code, out, _ = run_cli(capsys, "decide", "--n", "24", "--row-index", "1",
                           "--budget", "1")
    assert code == 3 and "UNDECIDED" in out
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", "1")
    code, out, _ = run_cli(capsys, "decide", "--n", "24", "--row-index", "1")
    assert code == 3
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", "1000000")
    code, out, _ = run_cli(capsys, "decide", "--n", "24", "--row-index", "1",
                           "--budget", "1")
    assert code == 0 and "FOUND" in out  # the environment overrides the flag


def test_decide_output_is_stable(capsys):
    first = run_cli(capsys, "decide", "--n", "20", "--format", "json")
    second = run_cli(capsys, "decide", "--n", "20", "--format", "json")
    assert first == second


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("value", ["many", "1.5", "-1"])
def test_decide_rejects_bad_env_budget(capsys, monkeypatch, value):
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", value)
    code, out, err = run_cli(capsys, "decide", "--n", "6")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_decide_rejects_negative_budget_flag(capsys):
    code, out, err = run_cli(capsys, "decide", "--n", "6", "--budget", "-5")
    assert code == 2 and out == "" and err.startswith("error: ")


def run_module(*argv, optimize):
    """Run the command in a fresh interpreter, with or without -O."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("DESIGNS_SEARCH_BUDGET", None)
    flags = ["-O"] if optimize else []
    result = subprocess.run([sys.executable, *flags, "-m", "tightdesigns.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=300)
    return result.returncode, result.stdout


def test_optimized_interpreter_gives_identical_results(capsys, tmp_path):
    # -O strips assert statements, so no check may live in one
    target = tmp_path / "d.json"
    code, _, _ = run_cli(capsys, "construct", "symmetric", "--plane", "3",
                         "--out", str(target))
    assert code == 0
    for argv in (("decide", "--n", "14", "--format", "json"),
                 ("verify", "--design", str(target))):
        plain = run_module(*argv, optimize=False)
        assert plain[1]
        assert run_module(*argv, optimize=True) == plain
