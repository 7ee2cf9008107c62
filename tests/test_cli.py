import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from oracles import make_design, parse_csv
from tightdesigns import cli, constructions
from tightdesigns.designs import WeightedDesign, load, save
from tightdesigns.feasibility import CSV_HEADER


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


def test_enumerate_6_to_60_csv_digest(capsys):
    # every row of 6..60 in order, as the exhaustive enumeration printed them
    code, out, _ = run_cli(capsys, "enumerate", "--n-min", "6", "--n-max", "60",
                           "--format", "csv")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "6ab5b39bc0fc0541d446db0811d918e4512c51bfe5b59a22c3a60e7e6b092bcd")


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


def test_flags_must_be_spelled_in_full():
    # each subcommand parses its own flags, so a prefix of --row-index is
    # refused there, not only at the top level
    with pytest.raises(SystemExit) as exc:
        cli.run(["decide", "--n", "20", "--row", "7"])
    assert exc.value.code == 2


def test_decide_budget_flag_and_env(capsys, monkeypatch):
    # row 21(3) is outside the construction catalog, so it needs the search,
    # which finds a witness after 20 nodes; one node is never enough and the
    # exit code must signal the exhaustion
    code, out, _ = run_cli(capsys, "decide", "--n", "21", "--row-index", "3",
                           "--budget", "1")
    assert code == 3 and "UNDECIDED" in out
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", "1")
    code, out, _ = run_cli(capsys, "decide", "--n", "21", "--row-index", "3")
    assert code == 3
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", "1000000")
    code, out, _ = run_cli(capsys, "decide", "--n", "21", "--row-index", "3",
                           "--budget", "1")
    assert code == 0 and "FOUND" in out  # the environment overrides the flag


def test_decide_output_is_stable(capsys):
    first = run_cli(capsys, "decide", "--n", "20", "--format", "json")
    second = run_cli(capsys, "decide", "--n", "20", "--format", "json")
    assert first == second


# the rows of 6..30 whose designs the catalog builds on first lookup, from the
# symmetric designs 2-(15,7,3), 2-(16,6,2), 2-(25,9,3) and 2-(31,10,3); their
# output is pinned by CATALOG_SHA256, every other row's by SEARCH_SHA256
CATALOG_ROWS = {14: (2, 3), 15: (1, 2, 3, 4), 24: (1, 2, 3, 4), 30: (10, 11, 14, 23)}
# sha256 over the exit code and stdout of each `decide ... --format json` below:
# every other row of 6..30; 34(2), whose search on shell 1 stops in mid-search
# at budget 50000; budget stops before the first node (33, 35, 40, 44), 35(1, 2, 6, 8)
# refuted by the range of the shell-1 pair sum, 28(3, 5), 40(1, 2, 6, 8) and
# 44(3, 5) by its second moment
SEARCH_SHA256 = "5f196194510f24c0346ead491201ed0b4e67499b69e3a589694495cfa10fe8ba"
SEARCH_ARGVS = ([["--n", str(n)] for n in range(6, 31) if n not in CATALOG_ROWS]
                + [["--n", str(n), "--row-index", str(i)] for n, rows in ((14, 4), (30, 26))
                   for i in range(1, rows + 1) if i not in CATALOG_ROWS[n]]
                + [["--n", "34", "--row-index", "2", "--budget", "50000"]]
                + [["--n", str(n), "--budget", "50000"] for n in (33, 35, 40, 44)])


# sha256 over the exit code and stdout of `decide --n N --row-index I --format
# json` for each row of CATALOG_ROWS
CATALOG_SHA256 = "089aa5eae1307993a5d4f18dc9c800256129a01e1bad60baba246883d7dfd7f6"
CATALOG_ARGVS = [["--n", str(n), "--row-index", str(i)]
                 for n, rows in CATALOG_ROWS.items() for i in rows]


def decide_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run_cli(capsys, "decide", *argv, "--format", "json")
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


def test_decide_search_output_is_pinned(capsys):
    assert decide_digest(capsys, SEARCH_ARGVS) == SEARCH_SHA256


def test_decide_catalog_output_is_pinned(capsys):
    assert decide_digest(capsys, CATALOG_ARGVS) == CATALOG_SHA256


# sha256 over the exit code and stdout of `decide --n N --budget B --format
# json` for N in 31..60 and B in (1, 100, 5000, 50000): the node counts,
# witnesses and stops before the first node of every search these rows reach
WIDE_SEARCH_SHA256 = "5f7e23452e094902bf3ff96561e804dacc953df310041894b5577ea8248863c4"
WIDE_SEARCH_ARGVS = [["--n", str(n), "--budget", str(budget)]
                     for n in range(31, 61) for budget in (1, 100, 5000, 50000)]


def test_decide_31_to_60_output_is_pinned(capsys):
    assert decide_digest(capsys, WIDE_SEARCH_ARGVS) == WIDE_SEARCH_SHA256


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "ok  symmetric_design 2-(16,6,2): residual split verifies" in out
    assert "ok  the same with one weight doubled fails moments, balance and frame" in out


def readme_commands():
    """The `tightdesigns ...` lines of the sh block under README's "## Command line"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("tightdesigns ")]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DESIGNS_SEARCH_BUDGET", raising=False)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "enumerate", "construct", "verify", "construct", "construct", "decide", "decide",
        "selftest"]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("value", ["many", "1.5", "-1"])
def test_decide_rejects_bad_env_budget(capsys, monkeypatch, value):
    monkeypatch.setenv("DESIGNS_SEARCH_BUDGET", value)
    code, out, err = run_cli(capsys, "decide", "--n", "6")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_decide_rejects_negative_budget_flag(capsys):
    code, out, err = run_cli(capsys, "decide", "--n", "6", "--budget", "-5")
    assert code == 2 and out == "" and err.startswith("error: ")


def program_env() -> dict:
    """The environment of a fresh interpreter on the package's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("DESIGNS_SEARCH_BUDGET", None)
    return env


def run_python(*args, timeout=300, **kwargs):
    """Run a fresh interpreter with these arguments on the package's source."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=program_env(), timeout=timeout, **kwargs)


def run_process(*argv, flags=(), **kwargs):
    """Run the command in a fresh interpreter with the given interpreter flags."""
    return run_python(*flags, "-m", "tightdesigns.cli", *argv, **kwargs)


def run_module(*argv, optimize):
    """Run the command in a fresh interpreter, with or without -O."""
    result = run_process(*argv, flags=["-O"] if optimize else [])
    return result.returncode, result.stdout


def test_budget_bounds_search_setup():
    # shell 1 of row 94(2), the shell with fewer blocks, has C(47, 23) ~ 1.6e13
    # incidence patterns: a one-node budget must stop the search before it builds
    # them, and the reason must give their number; the memory cap and the timeout
    # make a search that does build them fail fast
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_process("decide", "--n", "94", "--row-index", "2", "--budget", "1",
                         timeout=60, preexec_fn=cap_memory)
    assert (result.returncode, result.stderr) == (3, "")
    assert result.stdout.splitlines() == [
        "94(2) r1=46 r2=47 N1=47 N2=48 w=1: UNDECIDED [shell 1 (47 blocks of size 46, "
        "pairwise meets 22): node budget 1 exhausted before the first node: "
        "16123801841550 patterns]"]


def test_search_memory_follows_the_nodes_it_visits():
    # shell 1 of row 42(16) has C(21, 10) = 352,716 patterns, within a budget of
    # 400,000 nodes that it spends in mid-search.  A cover array for every
    # pattern took about 200 MB of address space and 10 s; the search reads a
    # few dozen of them, and the whole process now needs about 35 MB
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))

    result = run_process("decide", "--n", "42", "--row-index", "16", "--budget", "400000",
                         timeout=5, preexec_fn=cap_memory)
    assert (result.returncode, result.stderr) == (3, "")
    assert result.stdout.splitlines() == [
        "42(16) r1=20 r2=21 N1=21 N2=22 w=1: UNDECIDED [shell 1 (21 blocks of size 20, "
        "pairwise meets 9): node budget 400000 exhausted]"]


@pytest.mark.parametrize("argv, error", [
    (["hadamard", "--m", "4095"], "PG(11, 2) has more than 511 points"),
    (["hadamard", "--m", "1048575"], "PG(19, 2) has more than 511 points"),
    (["symmetric", "--paley", "1000003"],
     "Paley's design of order 1000003 has more than 511 points")])
def test_construct_refuses_a_design_above_the_point_bound(tmp_path, argv, error):
    # the refusal comes before any field table is built; without it PG(11, 2)
    # did not finish in 10 s under a 1 GiB cap, and the larger two would take
    # about 10^12 steps, so the cap and the timeout make such a build fail fast
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    result = run_process("construct", *argv, "--out", str(tmp_path / "d.json"),
                         timeout=1, preexec_fn=cap_memory)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {error}\n")


def stdout_envs() -> list[dict]:
    """program_env() with PYTHONUNBUFFERED unset, then set to 1.  Unbuffered,
    the interpreter's text layer drops what a partial write to a pipe leaves
    over instead of raising, so `cli.main` puts a buffered layer under it."""
    unset = program_env()
    unset.pop("PYTHONUNBUFFERED", None)
    return [unset, dict(unset, PYTHONUNBUFFERED="1")]


@pytest.mark.parametrize("argv", [["decide", "--n", "21", "--format", "json"],
                                  ["enumerate", "--n-min", "6", "--n-max", "200"]])
def test_stdout_closed_before_the_first_write_ends_quietly(argv):
    for env in stdout_envs():
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "tightdesigns.cli", *argv],
                                    stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                                    timeout=60)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, ""), env.get("PYTHONUNBUFFERED")


def test_stdout_closed_after_the_first_line_ends_quietly():
    # enumerate over 6..200 writes its 101,509 bytes at once, more than a pipe
    # holds, so the write is under way when the reader leaves
    for env in stdout_envs():
        with subprocess.Popen([sys.executable, "-m", "tightdesigns.cli", "enumerate",
                               "--n-min", "6", "--n-max", "200"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as child:
            first = child.stdout.readline()
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=60)
        assert first.decode() == CSV_HEADER + "\n"
        assert (code, stderr) == (141, b""), env.get("PYTHONUNBUFFERED")


def test_only_generated_rows_load_the_generator():
    # the registry lists its rows without building a design: enumerate and a
    # row outside the catalog build none and never import the generator's
    # module; a generated row builds its one split and imports it.  Builds are
    # counted at the two constructions every catalog design starts from (the
    # complemented split runs through the residual split).
    script = "\n".join([
        "import sys",
        "from tightdesigns import cli, constructions",
        "builds = 0",
        "def counted(build):",
        "    def wrapper(*args, **kwargs):",
        "        global builds",
        "        builds += 1",
        "        return build(*args, **kwargs)",
        "    return wrapper",
        "for name in ('from_symmetric_residual', 'hadamard_design'):",
        "    setattr(constructions, name, counted(getattr(constructions, name)))",
        "for argv in (['enumerate', '--n-min', '6', '--n-max', '60'],",
        "             ['decide', '--n', '34', '--row-index', '1'],",
        "             ['decide', '--n', '15', '--row-index', '1']):",
        "    code = cli.run(argv)",
        "    print('loaded', code, 'tightdesigns.symmetric' in sys.modules, builds)",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stdout.splitlines() if line.startswith("loaded")] == [
        "loaded 0 False 0", "loaded 0 False 0", "loaded 0 True 1"]


def test_optimized_interpreter_gives_identical_results(capsys, tmp_path):
    # -O strips assert statements, so no check may live in one
    target = tmp_path / "d.json"
    code, _, _ = run_cli(capsys, "construct", "symmetric", "--plane", "3",
                         "--out", str(target))
    assert code == 0
    for argv in (("decide", "--n", "14", "--format", "json"),
                 ("verify", "--design", str(target)), ("selftest",)):
        plain = run_module(*argv, optimize=False)
        assert plain[0] == 0 and plain[1]
        assert run_module(*argv, optimize=True) == plain


def hadamard_six():
    return constructions.hadamard_design(constructions.projective_geometry(1, 2))


TWO_SHELL_PASS = """\
tightness_check: size 7 vs bound 7: tight
frame_check: pass
relation_profile: within [4] / [4], between [3] (coherent)
weight_constancy_check: pass
"""

# exact stdout and exit code of `tightdesigns verify`, whose lines come from
# verify.full_check: scripts read this text, so it must not drift
VERIFY_TRANSCRIPTS = [
    ("hadamard", ("--t", "2"), 0, """\
moments_check (t=2): pass
balanced_check (t=2): pass
  lambda_0=7, lambda_1=3, lambda_2=1
""" + TWO_SHELL_PASS),
    ("hadamard", ("--t", "1"), 0, """\
moments_check (t=1): pass
balanced_check (t=1): pass
  lambda_0=7, lambda_1=3
""" + TWO_SHELL_PASS),
    ("hadamard", ("--t", "0"), 0, """\
moments_check (t=0): pass
balanced_check (t=0): pass
  lambda_0=7
""" + TWO_SHELL_PASS),
    ("first weight doubled", (), 1, """\
moments_check (t=2): FAIL
  violated at j=1, u=100000: 8 != 16/3
balanced_check (t=2): FAIL
  violated at j=1, u=001000: covering sum 3
tightness_check: size 7 vs bound 7: tight
frame_check: FAIL
relation_profile: within [4] / [4], between [3] (coherent)
weight_constancy_check: FAIL
"""),
    ("last point dropped", (), 1, """\
moments_check (t=2): FAIL
  violated at j=1, u=100000: 6 != 4
balanced_check (t=2): FAIL
  violated at j=1, u=010000: covering sum 2
tightness_check: size 6 vs bound 7: NOT TIGHT
two-shell checks skipped: |Y| = 6 != n+1 = 7
weight_constancy_check: pass
"""),
    ("three shells", (), 1, """\
moments_check (t=2): FAIL
  violated at j=1, u=100000: 12 != 4
balanced_check (t=2): FAIL
  violated at j=1, u=010000: covering sum 2
two-shell checks skipped: need at most 2 shells, found 3
weight_constancy_check: pass
"""),
    ("point on shell 0", (), 1, """\
moments_check (t=2): FAIL
  violated at j=1, u=100000: 8 != 20/3
balanced_check (t=2): FAIL
  violated at j=1, u=000010: covering sum 0
two-shell checks skipped: shells (0, 2) touch 0 or n
weight_constancy_check: pass
"""),
    ("one shell", (), 1, """\
moments_check (t=2): pass
balanced_check (t=2): pass
  lambda_0=15, lambda_1=5, lambda_2=1
tightness_check: size 15 vs bound 6: NOT TIGHT
two-shell checks skipped: need exactly 2 shells, found 1
weight_constancy_check: pass
"""),
]


def transcript_design(name):
    base = hadamard_six()
    return {
        "hadamard": base,
        "first weight doubled": WeightedDesign(
            6, base.points, (base.weights[0] * 2,) + base.weights[1:]),
        "last point dropped": WeightedDesign(6, base.points[:-1], base.weights[:-1]),
        "three shells": make_design(6, [(1,), (1, 2), (1, 2, 3)], [1, 1, 1]),
        "point on shell 0": make_design(6, [(), (1, 2), (3, 4)], [1, 1, 1]),
        "one shell": make_design(6, list(combinations(range(1, 7), 2)), [1] * 15),
    }[name]


@pytest.mark.parametrize("name, flags, expected_code, expected_out", VERIFY_TRANSCRIPTS)
def test_verify_transcript(capsys, tmp_path, name, flags, expected_code, expected_out):
    target = tmp_path / "d.json"
    target.write_bytes(save(transcript_design(name)))
    code, out, err = run_cli(capsys, "verify", "--design", str(target), *flags)
    assert (code, out, err) == (expected_code, expected_out, "")


def bad_input(tmp_path, case):
    """The argument list of one bad invocation; writes the files it names."""
    design = tmp_path / "d.json"
    design.write_bytes(save(hadamard_six()))
    if case == "t above n":
        return ["verify", "--design", str(design), "--t", "10"]
    if case == "negative t":
        return ["verify", "--design", str(design), "--t", "-1"]
    if case == "not utf-8":
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"n": 2, "points": ["10"], "weights": ["1"], "note": "\xe9"}')
        return ["verify", "--design", str(latin)]
    if case in ("zero denominator", "boolean n", "newline after weight"):
        bad = tmp_path / "bad.json"
        n, weight = {"zero denominator": ("1", "1/0"), "boolean n": ("true", "1"),
                     "newline after weight": ("1", "1\\n")}[case]
        bad.write_text(f'{{"n": {n}, "points": ["1"], "weights": ["{weight}"]}}')
        # t = 0 is in range for n = 1, so only the loader can reject the file
        return ["verify", "--design", str(bad), "--t", "0"]
    if case == "empty n range":
        return ["enumerate", "--n-min", "10", "--n-max", "5"]
    if case == "n range below 1":
        return ["enumerate", "--n-min", "-2", "--n-max", "8"]
    if case in ("zero n", "negative n"):
        return ["decide", "--n", "0" if case == "zero n" else "-3"]
    return ["construct", "hadamard", "--m", "3", "--out", str(tmp_path / "no" / "dir" / "x.json")]


@pytest.mark.parametrize("case", ["t above n", "negative t", "not utf-8", "zero denominator",
                                  "boolean n", "newline after weight", "empty n range",
                                  "n range below 1", "zero n", "negative n",
                                  "missing output directory"])
def test_bad_input_exits_2_with_an_error_line(capsys, tmp_path, case):
    code, out, err = run_cli(capsys, *bad_input(tmp_path, case))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


# sha256 over the eight files `construct symmetric` writes for one source:
# each --variant, without and with --complement, at --base-point 0 and v-1
CONSTRUCT_SHA256 = {
    ("--plane", 2): "0347c3569253e163fb93da5309edfecf94a22527444fd7d262c73631a7bee41a",
    ("--plane", 3): "15c6197d62e6f20e532372fd443d88d9ca02549adc1026bac3d1c8bc9a00ed12",
    ("--plane", 4): "02c7fcaf2464295c50e3389dcade25ffbbe40da2782975abdb31f0394aa3ce19",
    ("--plane", 5): "2c60af68a1e0cd7227fef03dab8cd6573486815bcb71bb609bf2539c5f0fddbe",
    ("--paley", 7): "db3d4fff5ff864f490f76929f4791dafb5040895d1829071ea650614170d031f",
    ("--paley", 11): "dcc378433701a60a62d0bab50ed465277c161f6234e29b42a241715d1f45fcdf",
    ("--paley", 19): "3accc93db814843d7fb9285a083166ff91205080885087eebd030ccbaa71a106",
    ("--paley", 23): "5d4a344d6a4ae45596903751203a71cb1e1340bc10a2ad4397b74539daa06f49",
    ("--paley", 27): "727f1e1e12508622809cfcab300e630ad3b2e06cf00b526510923d714f55b70f",
    ("--paley", 31): "74c6ae4c695e190127c791c42731458babf22a7da84f2fd83acb5224dc05b9ed",
}


@pytest.mark.parametrize("source, q", sorted(CONSTRUCT_SHA256))
def test_construct_symmetric_output_is_pinned(capsys, tmp_path, source, q):
    v = q * q + q + 1 if source == "--plane" else q
    target = tmp_path / "d.json"
    digest = hashlib.sha256()
    for variant in ("residual", "complemented"):
        for complement in ([], ["--complement"]):
            for base in (0, v - 1):
                code, _out, err = run_cli(capsys, "construct", "symmetric", source, str(q),
                                          "--variant", variant, *complement,
                                          "--base-point", str(base), "--out", str(target))
                assert (code, err) == (0, ""), (variant, complement, base)
                digest.update(target.read_bytes())
    assert digest.hexdigest() == CONSTRUCT_SHA256[source, q]


# sha256 of the file `construct hadamard --m M` writes: Sylvester's, the
# hyperplanes of PG(d, 2), for m + 1 = 2^(d+1), Paley otherwise
HADAMARD_SHA256 = {
    3: "5154cf2e7d7f40fb3d33276ecf17223a62afe3531842cb558a8e5632c857b608",
    7: "cc70b878640e62d8dc43bfbeaa312fd98137829baae796f5ce6328ebe4d7bf66",
    11: "102f0eb202c850271ac636bfdc49ac8f03b68524a3574f089f6429c98c9f37aa",
    15: "1a852b0510c7c374cef02abf438bed696c50709f211ad974a0d81babc8faddfa",
    19: "9f09d2a89494ea2a33a78975f07056f1449e6480daeebed4008a3e8935d524a4",
    23: "7161326755fe42bac8dd6a9affef8e073e9615e245c0529bc2b442e9ee3813fa",
    27: "1ec8e716111cf2705699b0ab8a67bdc0277e15bf5e9d047e7bf5c17feac1457b",
    31: "cab689b9cf630f2e002fe07fe204cbf0eac629a9a2bacd49cef339e289fd3284",
}
HADAMARD_ERRORS = {
    -5: "error: m = -5 needs m >= 3\n",  # -5 % 4 == 3
    -1: "error: m = -1 needs m >= 3\n",  # m + 1 = 0 would pass as a power of two
    0: "error: m = 0 needs m >= 3\n",
    1: "error: m = 1 needs m >= 3\n",
    2: "error: m = 2 needs m >= 3\n",
    4: "error: m = 4 needs m = 3 (mod 4)\n",
    5: "error: m = 5 needs m = 3 (mod 4)\n",
    9: "error: m = 9 needs m = 3 (mod 4)\n",
    35: "error: need an odd prime power q = 3 (mod 4), got 35\n",
    51: "error: need an odd prime power q = 3 (mod 4), got 51\n",  # 35 and 51 are no prime powers
}


@pytest.mark.parametrize("m", sorted(HADAMARD_SHA256) + sorted(HADAMARD_ERRORS))
def test_construct_hadamard_output_is_pinned(capsys, tmp_path, m):
    target = tmp_path / "d.json"
    code, out, err = run_cli(capsys, "construct", "hadamard", "--m", str(m), "--out", str(target))
    if m in HADAMARD_ERRORS:
        assert (code, out, err) == (2, "", HADAMARD_ERRORS[m])
        assert not target.exists()
    else:
        assert (code, err) == (0, "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == HADAMARD_SHA256[m]
