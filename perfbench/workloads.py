"""The benchmark's workloads: the CLI argument lists each one runs, and the
correctness gate that checks every row the program prints.

classify   `decide --n N --format json` for every N in 6..30 in seeded order:
           the paper's 94-row table, the only workload that verifies catalog
           designs and runs node-bound searches, with shared work between
           complement pairs and repeated shell problems.
enumerate  `enumerate --n-min 6 --n-max 60 --format csv`: the feasibility loop
           alone, no search and no verification.  The seed has no effect.
extend     `decide --n 34 --row-index i --budget 50000 --format json` for one
           member of each complement pair (rows 34(1) and 34(2), r1 + r2 <= n)
           in seeded order: a budget-capped, setup-bound search with no
           repeated shell problem and no catalog design.  Each row's verdict
           is pinned (EXTEND_EXPECTED), so skipping the search cannot pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from tracing import MissingLayer, search_detail

WORKLOADS = ("classify", "enumerate", "extend")
CLASSIFY_N = range(6, 31)
ENUMERATE_N = (6, 60)
EXTEND_N, EXTEND_ROWS, EXTEND_BUDGET = 34, (1, 2), 50000
# row index -> (verdict, cause) each extend row must get unless it is found
# with a witness that checks: 34(1) is refuted before any search, and 34(2)
# must run its search until the node budget runs out.  A search that newly
# refutes 34(2) is a new result that this gate cannot check, so it fails.
EXTEND_EXPECTED = {1: ("refuted", "zero_pair_degree"), 2: ("undecided", "node_budget")}
GOLDEN_N_MAX = 30
EXIT_OK, EXIT_BUDGET = 0, 3
# a gate that meets one of these in the program's output counts the row as failed
BAD_OUTPUT = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass; the program sees nothing of the seed."""
    rng = random.Random(seed)
    if workload == "classify":
        order = list(CLASSIFY_N)
        rng.shuffle(order)
        return [["decide", "--n", str(n), "--format", "json"] for n in order]
    if workload == "enumerate":
        low, high = ENUMERATE_N
        return [["enumerate", "--n-min", str(low), "--n-max", str(high), "--format", "csv"]]
    if workload == "extend":
        order = list(EXTEND_ROWS)
        rng.shuffle(order)
        return [["decide", "--n", str(EXTEND_N), "--row-index", str(i),
                 "--budget", str(EXTEND_BUDGET), "--format", "json"] for i in order]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    undecided: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass(frozen=True)
class Reference:
    """The repository's hand-maintained ground truth."""

    rows: list       # tests/reference_table.py REFERENCE_ROWS
    csv_text: str    # tests/data/parameter_table.csv


def gate(workload: str, results, program, reference: Reference) -> Tally:
    """Check one pass's results, each starting (argv, exit code, stdout); failures
    are counted."""
    return {"classify": _classify, "enumerate": _enumerate, "extend": _extend}[workload](
        results, program, reference)


def _classify(results, program, reference) -> Tally:
    tally = Tally()
    registry = program.nonexistence.construction_registry()
    by_n: dict[int, list] = {}
    for ref in reference.rows:
        by_n.setdefault(ref[0], []).append(ref)
    for argv, code, out, *_ in results:
        lines = out.splitlines()
        tally.rows += len(lines)
        expected = by_n.get(int(argv[argv.index("--n") + 1]), [])
        for ref, line in zip_longest(expected, lines):
            ok = code == EXIT_OK and ref is not None and line is not None
            if ok:
                try:
                    ok = _classify_row(ref, json.loads(line), program, registry, tally)
                except BAD_OUTPUT:
                    ok = False
            tally.add(ok)
    return tally


def _classify_row(ref, obj, program, registry, tally) -> bool:
    n, _index, r1, r2, n1, n2, a1, a2, gamma, w, l1, l2, exists = ref
    tally.undecided += obj["verdict"] == "undecided"
    row = obj["row"]
    fields = (row["n"], row["r1"], row["r2"], row["N1"], row["N2"], row["alpha1"],
              row["alpha2"], row["gamma"], Fraction(row["w"]), Fraction(row["lambda1"]),
              Fraction(row["lambda2"]))
    if fields != (n, r1, r2, n1, n2, a1, a2, gamma, w, l1, l2):
        return False
    if obj["verdict"] != ("found" if exists else "refuted"):
        return False
    return not exists or witness_ok(obj, program, registry)


def witness_ok(obj, program, registry) -> bool:
    """A catalog row carries a design that loads with the row's shells and weight
    ratio; any other found row carries a shell configuration that passes
    `check_shell_config`."""
    data = obj["row"]
    row = program.feasibility.candidate_row(data["n"], data["r1"], data["r2"], data["N1"])
    if row is None or program.feasibility.row_to_dict(row) != data:
        return False
    witness = obj["witness"]
    if (witness["kind"] == "design") != (row.key in registry):
        return False
    if witness["kind"] == "design":
        design = program.designs.load(witness["design"])
        (r1, c1, w1), (r2, c2, w2) = program.designs.shells_of(design).shells
        return (design.n, r1, r2, c1, c2, w2 / w1) == row.key
    solutions = program.nonexistence.pair_lambda_solutions(row)
    return program.nonexistence.check_shell_config(row, witness["shell"], solutions,
                                                   witness["blocks"])


def _enumerate(results, program, reference) -> Tally:
    """The n <= 30 prefix equals the golden CSV byte for byte; every later row
    has its complement row in the output."""
    tally = Tally()
    [(_argv, code, out, *_)] = results
    lines = out.splitlines(keepends=True)
    golden = reference.csv_text.splitlines(keepends=True)
    tally.rows = max(len(lines) - 1, 0)
    for line, want in zip_longest(lines[1:len(golden)], golden[1:]):
        tally.add(code == EXIT_OK and lines[:1] == golden[:1] and line == want)
    keys = []
    for line in lines[len(golden):]:
        try:
            keys.append(csv_key(line))
        except BAD_OUTPUT:
            keys.append(None)
    missing = set(missing_complements({k for k in keys if k is not None}))
    for key in keys:
        tally.add(code == EXIT_OK and key is not None and key[0] > GOLDEN_N_MAX
                  and key not in missing)
    return tally


def csv_key(line: str) -> tuple:
    """(n, r1, r2, N1, N2, w) of one `enumerate --format csv` row."""
    fields = line.strip().split(",")
    if len(fields) != 11:
        raise ValueError(f"expected 11 fields: {line!r}")
    return (*(int(x) for x in fields[:5]), Fraction(fields[8]))


def complement_key(key: tuple) -> tuple:
    n, r1, r2, n1, n2, w = key
    return (n, n - r2, n - r1, n2, n1, 1 / w)


def missing_complements(keys) -> list[tuple]:
    """The keys whose complement row (n, n-r2, n-r1, N2, N1, 1/w) is absent."""
    keys = set(keys)
    return sorted(k for k in keys if complement_key(k) not in keys)


def _extend(results, program, reference) -> Tally:
    tally = Tally()
    registry = program.nonexistence.construction_registry()
    for argv, code, out, *_ in results:
        lines = out.splitlines()
        tally.rows += len(lines)
        try:
            [line] = lines
            obj = json.loads(line)
            row, verdict = obj["row"], obj["verdict"]
            tally.undecided += verdict == "undecided"
            index = int(argv[argv.index("--row-index") + 1])
            ok = (row["n"] == EXTEND_N and row["r1"] + row["r2"] <= EXTEND_N
                  and (code == EXIT_OK and witness_ok(obj, program, registry)
                       if verdict == "found" else pinned_verdict(index, code, obj)))
        except (*BAD_OUTPUT, MissingLayer):
            ok = False
        tally.add(ok)
    return tally


def pinned_verdict(index: int, code, obj: dict) -> bool:
    """Whether an extend row that is not found got the verdict, cause and exit
    code pinned for it in EXTEND_EXPECTED."""
    if obj["verdict"] == "undecided":
        budget_ran_out = search_detail(obj["reason"]) == (EXTEND_BUDGET, True)
        got, want_code = ("undecided", "node_budget" if budget_ran_out else None), EXIT_BUDGET
    else:
        got, want_code = (obj["verdict"], obj["reason"]["cause"]), EXIT_OK
    return got == EXTEND_EXPECTED[index] and code == want_code
