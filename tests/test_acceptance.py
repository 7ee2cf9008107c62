"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact; there are no tolerances to
tune anywhere in this file.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from oracles import make_design
from reference_table import EMPTY_N, REFERENCE_ROWS
from tightdesigns import constructions, verify
from tightdesigns.designs import WeightedDesign, complement, shells_of
from tightdesigns.feasibility import enumerate_rows, to_csv
from tightdesigns.hamming import (
    BinaryWord,
    binomial,
    gram_closed_form,
    krawtchouk,
)
from tightdesigns.nonexistence import construction_registry, decide

GOLDEN = Path(__file__).parent / "data" / "parameter_table.csv"

# the rows served by the splits of 2-(15,7,3), 2-(16,6,2), 2-(25,9,3) and
# 2-(31,10,3)
GENERATED_ROWS = {(14, 2), (14, 3), (15, 1), (15, 2), (15, 3), (15, 4), (24, 1), (24, 2),
                  (24, 3), (24, 4), (30, 10), (30, 11), (30, 14), (30, 23)}

REFERENCE_BY_KEY = {
    (n, r1, r2, n1, n2, w): (index, l1, l2, exists)
    for (n, index, r1, r2, n1, n2, _a1, _a2, _g, w, l1, l2, exists) in REFERENCE_ROWS
}


def report(number, name, failures, elapsed, limit):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE criterion {number} ({name}): {status} [{elapsed:.1f}s]")
    assert not failures, failures[:5]
    assert elapsed < limit, f"{elapsed:.1f}s exceeds the {limit}s target"


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    failures = []
    rows = enumerate_rows(6, 30)
    if to_csv(rows) != GOLDEN.read_text():
        failures.append("CSV output differs from the golden table")
    for n in EMPTY_N:
        if any(r.n == n for r in rows):
            failures.append(f"unexpected rows for n={n}")
    if len(rows) != len(REFERENCE_ROWS):
        failures.append(f"{len(rows)} rows instead of {len(REFERENCE_ROWS)}")
    report(1, "table reproduction", failures, time.monotonic() - start, 1.0)


def _full_verification(design, failures, label):
    for result in verify.full_check(design):
        if not result.ok:
            failures.append(f"{label}: {result.name} check failed")


def _match_reference(design, failures, label):
    (r1, n1, w1), (r2, n2, w2) = shells_of(design).shells
    key = (design.n, r1, r2, n1, n2, w2 / w1)
    if key not in REFERENCE_BY_KEY:
        failures.append(f"{label}: parameters {key} not in the table")
        return
    index, l1, l2, exists = REFERENCE_BY_KEY[key]
    if not exists:
        failures.append(f"{label}: landed on a nonexistent row {design.n}({index})")
    balanced = verify.balanced_check(design, 2)
    if not balanced.ok or balanced.lambdas[1:] != (l1 * w1, l2 * w1):
        failures.append(f"{label}: covering constants differ from row {design.n}({index})")


def test_criterion_2_constructions_verified():
    start = time.monotonic()
    failures = []
    hadamard_rows = {3: (6, 2, 3), 7: (14, 2, 7), 11: (22, 2, 11), 15: (30, 2, 15)}
    for m, (n, r1, r2) in hadamard_rows.items():
        design = constructions.hadamard_design(constructions.hadamard_source(m + 1)())
        label = f"hadamard m={m}"
        (got_r1, _n1, w1), (got_r2, _n2, w2) = shells_of(design).shells
        if (design.n, got_r1, got_r2) != (n, r1, r2) or w2 / w1 != Fraction(8, n + 2):
            failures.append(f"{label}: wrong shells or weight ratio")
        _full_verification(design, failures, label)
        _match_reference(design, failures, label)

    sources = [
        ("2-(7,3,1)", constructions.projective_geometry(2, 2)),
        ("2-(11,5,2)", constructions.paley_design(11)),
        ("2-(13,4,1)", constructions.projective_geometry(2, 3)),
        ("2-(21,5,1)", constructions.projective_geometry(2, 4)),
        ("2-(23,11,5)", constructions.paley_design(23)),
    ]
    sources += [
        (f"complement of {name}", constructions.complement_design(design))
        for name, design in list(sources)
    ]
    for name, symmetric in sources:
        variants = [("residual", constructions.from_symmetric_residual(symmetric))]
        if 2 * symmetric.k != symmetric.v:
            variants.append(
                ("complemented", constructions.from_symmetric_complemented(symmetric))
            )
        for variant, design in variants:
            label = f"{variant} of {name}"
            _full_verification(design, failures, label)
            _match_reference(design, failures, label)
    report(2, "constructions verified", failures, time.monotonic() - start, 10.0)


def test_criterion_3_nonexistence_reproduction():
    start = time.monotonic()
    failures = []
    registry = construction_registry()
    rows = enumerate_rows(6, 30)
    index_within = {}
    for row in rows:
        index_within[row.n] = index_within.get(row.n, 0) + 1
        index, _l1, _l2, exists = REFERENCE_BY_KEY[row.key]
        if index != index_within[row.n]:
            failures.append(f"row ordering mismatch at {row.n}({index})")
        verdict = decide(row)
        label = f"{row.n}({index})"
        if exists:
            if verdict.refuted:
                failures.append(f"{label}: classified-existing row was refuted")
            if (row.key in registry or (row.n, index) in GENERATED_ROWS) and not (
                verdict.found and verdict.witness["kind"] == "design"
            ):
                failures.append(f"{label}: catalog row did not return its design")
        elif not verdict.refuted:
            failures.append(f"{label}: nonexistent row not refuted ({verdict.status})")
    refutable = sum(1 for row in REFERENCE_ROWS if not row[-1])
    print(f"  ({refutable} nonexistent rows refuted, "
          f"{len(registry)} rows served by the construction catalog)")
    report(3, "nonexistence reproduction", failures, time.monotonic() - start, 600.0)


def _brute_shell_sums(n):
    """Direct per-shell sums of phi products over whole shells, by enumeration."""
    e1 = BinaryWord.from_support(n, (1,))
    e2 = BinaryWord.from_support(n, (2,))
    sums = {}
    for r in range(1, n):
        s_d0 = s_c0 = s_c2 = 0
        for support in combinations(range(1, n + 1), r):
            x = BinaryWord.from_support(n, support)
            q1 = krawtchouk(n, 1, e1.distance(x))
            s_d0 += q1
            s_c0 += q1 * q1
            s_c2 += q1 * krawtchouk(n, 1, e2.distance(x))
        sums[r] = (s_d0, s_c0, s_c2)
    return sums


def test_criterion_4_property_suites():
    start = time.monotonic()
    failures = []
    rng = random.Random(20260809)

    # Krawtchouk orthogonality and reciprocity, exact for all n <= 14
    for n in range(1, 15):
        q = [[krawtchouk(n, k, u) for u in range(n + 1)] for k in range(n + 1)]
        for k in range(n + 1):
            for l in range(n + 1):
                total = sum(binomial(n, u) * q[k][u] * q[l][u] for u in range(n + 1))
                if total != (2**n * binomial(n, k) if k == l else 0):
                    failures.append(f"orthogonality fails at n={n}, k={k}, l={l}")
            for u in range(n + 1):
                if binomial(n, u) * q[k][u] != binomial(n, k) * q[u][k]:
                    failures.append(f"reciprocity fails at n={n}, k={k}, u={u}")

    # closed-form Gram data == brute-force shell summation, n <= 10,
    # every shell pair, 20 random positive rational weight pairs
    for n in range(3, 11):
        sums = _brute_shell_sums(n)
        weight_pairs = [
            (Fraction(rng.randint(1, 40), rng.randint(1, 12)),
             Fraction(rng.randint(1, 40), rng.randint(1, 12)))
            for _ in range(20)
        ]
        for r1 in range(1, n - 1):
            for r2 in range(r1 + 1, n):
                for W1, W2 in weight_pairs:
                    expected = tuple(
                        W1 * Fraction(sums[r1][i], binomial(n, r1))
                        + W2 * Fraction(sums[r2][i], binomial(n, r2))
                        for i in range(3)
                    )
                    g = gram_closed_form(n, r1, r2, W1, W2)
                    if (g.d0, g.c0, g.c2) != expected:
                        failures.append(f"gram mismatch at {(n, r1, r2, W1, W2)}")
                        break

    # the two design criteria agree on a corpus of >= 200 weighted subsets
    corpus = []
    for design in small_constructions():
        corpus.append(design)
        points = list(design.points)
        replacement = next(
            BinaryWord(design.n, bits)
            for bits in range(1, 2**design.n)
            if BinaryWord(design.n, bits).weight == points[0].weight
            and BinaryWord(design.n, bits) not in set(points)
        )
        corpus.append(
            WeightedDesign(design.n, (replacement,) + tuple(points[1:]), design.weights)
        )
        corpus.append(
            WeightedDesign(
                design.n, design.points,
                (design.weights[0] * 2,) + design.weights[1:],
            )
        )
    while len(corpus) < 200:
        n = rng.randint(4, 12)
        size = rng.randint(2, 12)
        supports = set()
        while len(supports) < size:
            k = rng.randint(0, n)
            supports.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in supports]
        corpus.append(make_design(n, sorted(supports), weights))
    agreements = 0
    for design in corpus:
        for t in (1, 2):
            if verify.moments_check(design, t).ok != verify.balanced_check(design, t).ok:
                failures.append(f"criteria disagree on a size-{design.size} subset in "
                                f"H({design.n},2) at t={t}")
            else:
                agreements += 1

    # frame identities hold for every constructed tight design, fail when perturbed
    for key, (label, design) in sorted(construction_registry().items()):
        if not verify.frame_check(design):
            failures.append(f"frame check fails for {label}")
        perturbed = WeightedDesign(
            design.n, design.points, (design.weights[0] * 2,) + design.weights[1:]
        )
        if verify.frame_check(perturbed):
            failures.append(f"frame check accepts a perturbation of {label}")

    print(f"  (criteria compared on {len(corpus)} subsets, "
          f"{agreements} agreeing verdicts)")
    report(4, "property suites", failures, time.monotonic() - start, 600.0)


def small_constructions():
    """The constructions in H(n,2) with n <= 12, each followed by its
    H(n,2)-complement: the Hadamard pairing for m = 3, then the residual and
    the complemented split of the planes of orders 2 and 3 and of paley[7]
    and paley[11].  The registry serves 8 of these 18 designs; the others lie
    on rows it serves by another construction, so they are built here."""
    designs = [constructions.hadamard_design(constructions.projective_geometry(1, 2))]
    for symmetric in (constructions.projective_geometry(2, 2),
                      constructions.projective_geometry(2, 3),
                      constructions.paley_design(7), constructions.paley_design(11)):
        designs.append(constructions.from_symmetric_residual(symmetric))
        designs.append(constructions.from_symmetric_complemented(symmetric))
    return [image for design in designs for image in (design, complement(design))]


def test_criterion_5_full_scale_claims_note():
    # Constancy of shell weights for all tight designs at once is not an
    # experiment this artifact can run; it substitutes instance-level
    # weight-constancy and frame checks, which criteria 2 and 4 already
    # exercise on every constructed design.
    start = time.monotonic()
    sample = [design for _label, design in sorted(construction_registry().values())][:4]
    failures = []
    for design in sample:
        if not (verify.weight_constancy_check(design) and verify.frame_check(design)):
            failures.append(f"instance-level substitute checks fail in H({design.n},2)")
    report(5, "full-scale claims handled by instance checks", failures,
           time.monotonic() - start, 60.0)
