"""Tests of the benchmark's own helpers: self time, quartiles, scaled time,
complement closure, search-detail parsing, span coverage, the enumerate
and extend gates and the resident-set reading."""

import json
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import clock
import report
import run
import tracing
import workloads

GOLDEN = (Path(__file__).resolve().parent.parent / "tests" / "data"
          / "parameter_table.csv").read_text()


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["cli.run", 0.0, 10.0, None, "cmd0"],
        ["decide", 1.0, 4.0, 0, "cmd0"],
        ["csp_search", 2.0, 3.5, 1, "cmd0"],
        ["decide", 5.0, 6.0, 0, "cmd0"],
        ["cli.run", 10.0, 11.0, None, "cmd1"],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ["parent", 0.0, 4.0, None, "r"],
        ["a", 1.0, 3.0, 0, "r"],
        ["b", 2.0, 5.0, 0, "r"],
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_quartiles_match_statistics_quantiles():
    values = [21.1, 28.2, 23.0, 24.4, 22.9, 25.0, 26.1, 23.3, 24.0, 22.2]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert report.quartiles(values) == (q1, median, q3)
    assert report.spread(values) == pytest.approx((q3 - q1) / median)
    assert report.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert report.spread([2.5, 2.5, 2.5]) == 0.0


def test_scaled_seconds_skips_probe_time_and_scales_each_stretch():
    ref = clock.REFERENCE_S
    # probes of ref, 2 ref and 2 ref seconds: the host runs at full speed, then
    # at half speed; the timed call runs from 1.0 to 5.0
    probes = [(1.0 - ref, 1.0), (3.0, 3.0 + 2 * ref), (5.0, 5.0 + 2 * ref)]
    raw, scaled = clock.scaled_seconds(1.0, 5.0, probes)
    assert raw == pytest.approx(2.0 + (2.0 - 2 * ref))
    assert scaled == pytest.approx(2.0 / 1.5 + (2.0 - 2 * ref) / 2)
    assert clock.scaled_seconds(1.0, 2.0, [(0.9, 1.0), (2.0, 2.0 + ref)])[0] == pytest.approx(1.0)


def test_meter_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    result, raw, scaled, cpu = clock.Meter().call(lambda: sum(range(10**6)))
    assert result == sum(range(10**6))
    assert raw > 0 and scaled > 0 and cpu >= 0
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_complement_key_is_an_involution_and_closure_finds_gaps():
    row = (34, 2, 17, 17, 18, Fraction(2, 9))
    partner = workloads.complement_key(row)
    assert partner == (34, 17, 32, 18, 17, Fraction(9, 2))
    assert workloads.complement_key(partner) == row
    assert workloads.missing_complements([row, partner]) == []
    assert workloads.missing_complements([row]) == [row]


def test_csv_key_reads_the_row_fields():
    assert workloads.csv_key("10,2,5,5,6,4,6,5,2/3,3,1\n") == (10, 2, 5, 5, 6, Fraction(2, 3))
    with pytest.raises(ValueError):
        workloads.csv_key("10,2,5\n")


def test_enumerate_gate_checks_golden_prefix_and_complements():
    reference = workloads.Reference([], GOLDEN)
    pair = "31,1,2,3,29,2,2,3,1,1,1\n31,29,30,29,3,2,2,3,1,1,1\n"
    argv = workloads.commands("enumerate", 0)[0]
    good = workloads.gate("enumerate", [(argv, 0, GOLDEN + pair)], None, reference)
    assert (good.attempted, good.failed, good.rows) == (96, 0, 96)
    lone = workloads.gate("enumerate", [(argv, 0, GOLDEN + pair.splitlines()[0])], None, reference)
    assert lone.failed == 1
    lines = GOLDEN.splitlines(keepends=True)
    edited = "".join(lines[:5] + [lines[5].replace(",", ";", 1)] + lines[6:])
    assert workloads.gate("enumerate", [(argv, 0, edited)], None, reference).failed == 1
    assert workloads.gate("enumerate", [(argv, 2, GOLDEN)], None, reference).failed == 94


@pytest.mark.parametrize("detail, expected", [
    ("shell 1 (4 blocks of size 3, pairwise meets 1): exhausted after 12 nodes, "
     "no configuration", (12, False)),
    ("shell 2 (7 blocks of size 5, pairwise meets 2): witness after 525770 nodes", (525770, False)),
    ("shell 2 (18 blocks of size 17, pairwise meets 8): node budget 50000 exhausted",
     (50000, True)),
])
def test_search_detail(detail, expected):
    assert tracing.search_detail(detail) == expected


def test_search_detail_without_a_count_fails_loudly():
    with pytest.raises(tracing.MissingLayer):
        tracing.search_detail("constructed by hadamard[m=3]")


def test_shell_problem_is_invariant_under_block_complement():
    n, blocks, size, meet, degree, domain = 34, 18, 17, 8, 9, [3, 4, 5]
    flipped = (n - size, n - 2 * size + meet, blocks - degree,
               [blocks - 2 * degree + t for t in domain])
    assert tracing.shell_problem(n, blocks, size, meet, degree, domain) == \
        tracing.shell_problem(n, blocks, *flipped)
    assert tracing.shell_problem(30, 21, 10, 3, 7, [2]) == \
        tracing.shell_problem(30, 21, 20, 13, 14, [9])


def test_commands_depend_only_on_the_seed():
    classify = workloads.commands("classify", 5)
    assert classify == workloads.commands("classify", 5)
    assert sorted(int(argv[2]) for argv in classify) == list(range(6, 31))
    assert {tuple(workloads.commands("extend", s)[0]) for s in range(8)} == {
        ("decide", "--n", "34", "--row-index", str(i), "--budget", "50000", "--format", "json")
        for i in (1, 2)}
    with pytest.raises(ValueError):
        workloads.commands("nothing", 1)


def test_missing_layer_fails_loudly():
    modules = {name: SimpleNamespace() for name in ("feasibility", "constructions",
                                                    "nonexistence", "verify", "designs")}
    for module, attr, _ in tracing.SPANNED + tracing.COUNTED:
        setattr(modules[module], attr, len)
    for cause in tracing.CAUSES:
        setattr(modules["nonexistence"], f"CAUSE_{cause.upper()}", cause)
    tracing.check_layers(modules)
    del modules["nonexistence"].csp_search
    with pytest.raises(tracing.MissingLayer, match="csp_search"):
        tracing.check_layers(modules)


def test_tracer_wraps_counts_and_restores():
    feasibility = SimpleNamespace(candidate_row=lambda n: n if n % 2 else None)
    tracer = tracing.Tracer()
    original = feasibility.candidate_row
    tracer._patch(feasibility, "candidate_row",
                  tracer._counted(original, "feasibility.candidate_row"))
    with tracer.span("cli.run"):
        assert [feasibility.candidate_row(n) for n in range(5)] == [None, 1, None, 3, None]
    tracer.uninstall()
    assert feasibility.candidate_row is original
    metrics = tracing.layer_metrics(tracer, wall_s=tracer.spans[0][2] - tracer.spans[0][1])
    assert metrics["feasibility.candidate_row.calls"] == 5
    assert metrics["feasibility.yield"] == pytest.approx(0.4)
    assert metrics["trace.coverage"] == 0.0  # no layer span under cli.run


def test_coverage_is_the_share_of_wall_time_in_layer_spans_under_cli_run():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.run", 0.0, 10.0, None, "cmd0"],
        ["nonexistence.decide", 1.0, 7.0, 0, "cmd0"],
        ["nonexistence.csp_search", 2.0, 5.0, 1, "cmd0"],
        ["cli.run", 10.0, 12.0, None, "cmd1"],
        ["feasibility.enumerate_rows", 10.5, 11.5, 3, "cmd1"],
    ]
    metrics = tracing.layer_metrics(tracer, wall_s=12.0)
    assert metrics["trace.coverage"] == pytest.approx(7.0 / 12.0)
    assert metrics["cli.run.self_s"] == pytest.approx(5.0)
    scaled = tracing.layer_metrics(tracer, wall_s=14.0, factors={"cmd1": 2.0})
    assert scaled["trace.coverage"] == pytest.approx(8.0 / 14.0)


def extend_line(index, verdict, reason):
    row = {"n": 34, "r1": 2 if index == 1 else 16, "r2": 17}
    return json.dumps({"row": row, "verdict": verdict, "reason": reason}) + "\n"


def test_extend_gate_pins_each_rows_verdict_cause_and_exit_code():
    program = SimpleNamespace(nonexistence=SimpleNamespace(construction_registry=dict))
    refuted = {"cause": "zero_pair_degree", "trace": "shell 2: every pair is forced ..."}
    ran_out = "shell 2 (18 blocks of size 17, pairwise meets 8): node budget 50000 exhausted"

    def failed(index, code, verdict, reason):
        argv = ["decide", "--n", "34", "--row-index", str(index), "--budget", "50000"]
        results = [(argv, code, extend_line(index, verdict, reason))]
        return workloads.gate("extend", results, program, None).failed

    assert failed(1, 0, "refuted", refuted) == 0
    assert failed(2, 3, "undecided", ran_out) == 0
    assert failed(2, 0, "undecided", ran_out) == 1  # wrong exit code
    assert failed(2, 3, "undecided", ran_out.replace("50000", "10")) == 1  # stopped early
    assert failed(2, 3, "undecided", "search skipped") == 1  # no node count
    assert failed(2, 0, "refuted", {"cause": "csp_exhausted", "trace": ""}) == 1
    assert failed(1, 3, "undecided", ran_out) == 1
    assert failed(1, 0, "refuted", {**refuted, "cause": "pair_degree_sum"}) == 1


def test_max_rss_leaves_out_the_parents_memory():
    held = bytearray(64 * 1024 * 1024)  # touched, so resident in this process
    child = subprocess.run(
        [sys.executable, "-c", "import run; print(run.max_rss_kb())"],
        cwd=Path(run.__file__).parent, capture_output=True, text=True, check=True)
    assert 0 < int(child.stdout) < len(held) // 1024 <= run.max_rss_kb()
