"""Quick property suites for every module, used by the selftest command."""

from __future__ import annotations

from . import catalog, constructions, designs, feasibility, nonexistence, verify
from .hamming import binomial, shell_intersection
from .symmetric import symmetric_design


def run(out) -> bool:
    ok = True

    def report(name, passed):
        nonlocal ok
        ok = ok and passed
        out.write(f"{'ok' if passed else 'FAIL'}  {name}\n")

    passed = all(
        sum(shell_intersection(n, j, r, nu) for nu in range(n + 1)) == binomial(n, r)
        for n in range(1, 11) for j in range(n + 1) for r in range(n + 1)
    )
    report("shell_intersection row sums", passed)

    fano = constructions.projective_geometry(2, 2)
    built = constructions.from_symmetric_residual(fano)
    passed = (
        all(result.ok for result in verify.full_check(built))
        and designs.load(designs.save(built)) == built
        and designs.complement(designs.complement(built)) == built
    )
    report("residual of the Fano plane verifies end to end", passed)

    doubled = designs.WeightedDesign(built.n, built.points,
                                     (2 * built.weights[0],) + built.weights[1:])
    failed = {result.name for result in verify.full_check(doubled) if not result.ok}
    report("the same with one weight doubled fails moments, balance and frame",
           {"moments", "balanced", "frame"} <= failed)

    had = constructions.hadamard_design(constructions.projective_geometry(1, 2))
    passed = all(result.ok for result in verify.full_check(had))
    report("hadamard pairing m=3 verifies", passed)

    rows = feasibility.enumerate_rows(6, 12)
    keys = {row.key for row in rows}
    passed = bool(rows) and all(catalog.twin_key(row.key) in keys for row in rows)
    report("feasible rows closed under complement (n <= 12)", passed)

    six = feasibility.enumerate_rows(6, 6)
    verdicts = [nonexistence.decide(row) for row in six]
    passed = len(six) == 2 and all(v.found for v in verdicts)
    twentyseven = feasibility.enumerate_rows(27, 27)
    passed &= len(twentyseven) == 2 and all(
        nonexistence.decide(row).refuted for row in twentyseven
    )
    report("decide: n=6 rows found, n=27 rows refuted", passed)

    row = feasibility.enumerate_rows(20, 20)[6]
    verdict = nonexistence.csp_search(row, 1, nonexistence.pair_lambda_solutions(row))
    passed = verdict.cause == nonexistence.CAUSE_CSP_EXHAUSTED
    row = feasibility.enumerate_rows(21, 21)[2]
    solutions = nonexistence.pair_lambda_solutions(row)
    verdict = nonexistence.csp_search(row, 1, solutions)
    passed &= verdict.found and nonexistence.check_shell_config(
        row, 1, solutions, verdict.witness["blocks"])
    report("csp_search: 20(7) shell 1 exhausted, 21(3) shell 1 witness checks", passed)

    built = constructions.from_symmetric_residual(symmetric_design(16, 6, 2))
    report("symmetric_design 2-(16,6,2): residual split verifies",
           all(result.ok for result in verify.full_check(built)))

    return ok
