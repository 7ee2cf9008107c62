import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from oracles import make_design
from tightdesigns import constructions, verify
from tightdesigns.designs import (
    WeightedDesign,
    WrongShellCount,
    shells_of,
)
from tightdesigns.hamming import (
    BinaryWord,
    binomial,
    gram_shell_terms,
    krawtchouk,
    shell_intersection,
)
from tightdesigns.nonexistence import construction_registry
from tightdesigns.verify import (
    BalancedReport,
    DegenerateShells,
    NotTight,
    balanced_check,
    frame_check,
    full_check,
    moments_check,
    tightness_check,
    weight_constancy_check,
)


def six_design():
    return constructions.hadamard_design(constructions.projective_geometry(1, 2))


def fourteen_design():
    return constructions.hadamard_design(constructions.projective_geometry(2, 2))


def full_shell(n, r, weight=Fraction(1)):
    supports = list(combinations(range(1, n + 1), r))
    return make_design(n, supports, [weight] * len(supports))


def test_full_shell_is_design_for_every_t():
    for n, r in ((5, 2), (6, 3)):
        design = full_shell(n, r, Fraction(2, 3))
        for t in range(n + 1):
            assert moments_check(design, t).ok


def test_moments_six_design():
    assert moments_check(six_design(), 2).ok


def test_moments_perturbed_six_design():
    base = six_design()
    # swap one weight-3 point for another weight-3 word not in the design
    used = set(base.points)
    replacement = next(
        BinaryWord.from_support(6, s)
        for s in combinations(range(1, 7), 3)
        if BinaryWord.from_support(6, s) not in used
    )
    points = list(base.points)
    points[4] = replacement  # a shell-3 point
    perturbed = WeightedDesign(6, tuple(points), base.weights)
    report = moments_check(perturbed, 2)
    assert not report.ok
    assert report.first_violation[0] in (1, 2)


def test_balanced_six_design():
    report = balanced_check(six_design(), 2)
    assert report.ok
    assert report.lambdas == (Fraction(7), Fraction(3), Fraction(1))  # lambda_0 is the total weight


def test_balanced_lambda0_total_weight():
    design = make_design(5, [(1, 2), (3,)], [Fraction(1, 3), Fraction(5, 2)])
    report = balanced_check(design, 0)
    assert report.ok and report.lambdas == (Fraction(1, 3) + Fraction(5, 2),)


def test_balanced_violation_reported():
    design = make_design(5, [(1, 2), (2, 3)], [1, 1])
    report = balanced_check(design, 1)
    assert not report.ok
    assert report.lambdas is None
    j, u, observed = report.first_violation
    assert j == 1 and observed in (Fraction(0), Fraction(1), Fraction(2))


def test_moments_t_out_of_range():
    with pytest.raises(ValueError):
        moments_check(six_design(), 7)


def test_tightness_six_design():
    report = tightness_check(six_design())
    assert (report.size, report.bound, report.tight) == (7, 7, True)


def test_tightness_full_shell_not_tight():
    report = tightness_check(full_shell(6, 2))
    assert report.size == 15 and not report.tight
    assert report.bound <= 7


def test_tightness_bound_is_n_plus_one():
    for design in (six_design(), fourteen_design()):
        assert tightness_check(design).bound == design.n + 1


def test_tightness_errors():
    with pytest.raises(DegenerateShells):
        tightness_check(make_design(4, [(), (1, 2)], [1, 1]))  # contains the base point
    with pytest.raises(WrongShellCount):
        tightness_check(make_design(6, [(1,), (1, 2), (1, 2, 3)], [1, 1, 1]))


def test_frame_check_constructed_designs():
    assert frame_check(six_design())
    assert frame_check(fourteen_design())  # non-constant weight across shells


def test_frame_check_rejects_non_design():
    base = six_design()
    tweaked = WeightedDesign(
        6, base.points, base.weights[:3] + (Fraction(2),) + base.weights[4:]
    )
    assert not frame_check(tweaked)


def test_frame_check_not_tight():
    with pytest.raises(NotTight):
        frame_check(make_design(6, [(1, 2), (1, 2, 3)], [1, 1]))


def test_weight_constancy():
    assert weight_constancy_check(six_design())
    assert weight_constancy_check(fourteen_design())
    mixed = make_design(6, [(1, 2), (3, 4)], [1, 2])
    assert not weight_constancy_check(mixed)


def random_weighted_subset(rng, n):
    size = rng.randint(2, min(10, 2**n - 2))
    supports = rng.sample(
        [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)], size
    )
    weights = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in supports]
    return make_design(n, supports, weights)


def test_criterion_equivalence_small_corpus():
    """moments_check and balanced_check agree (a large corpus runs in acceptance)."""
    rng = random.Random(7)
    corpus = [six_design(), full_shell(5, 2)]
    corpus += [random_weighted_subset(rng, rng.randint(3, 7)) for _ in range(40)]
    for design in corpus:
        for t in (1, 2):
            assert moments_check(design, t).ok == balanced_check(design, t).ok


def test_full_check_names_every_check():
    base = six_design()
    results = full_check(base)
    assert [(r.name, r.ok) for r in results] == [
        ("moments", True), ("balanced", True), ("tightness", True), ("frame", True),
        ("relations", True), ("weight constancy", True)]
    assert results[0].report == moments_check(base, 2)
    assert results[1].report == balanced_check(base, 2)
    assert results[2].report == tightness_check(base)
    assert results[4].report.between == {3}
    assert [r.name for r in full_check(base, 1)][:2] == ["moments", "balanced"]
    assert full_check(base, 1)[1].report.lambdas == (7, 3)
    untight = WeightedDesign(6, base.points[:-1], base.weights[:-1])
    assert [(r.name, r.ok) for r in full_check(untight)][2:] == [
        ("tightness", False), ("two-shell checks", False), ("weight constancy", True)]
    for t in (-1, 7):
        with pytest.raises(ValueError):
            full_check(base, t)


# Generic exact oracles: Gaussian elimination, over Fraction or fraction-free over
# the integers, and direct sums, independent of the closed forms used by the checks.


def oracle_rank(matrix):
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_solve(matrix, rhs):
    """(d, d A^-1 B) for an invertible integer matrix A = `matrix` and B = `rhs`,
    d = +-det A, by fraction-free (Bareiss) Gauss-Jordan elimination: after the
    step at column c every entry is a minor of [A | B], so each division is exact."""
    size = len(matrix)
    m = [list(row) + list(extra) for row, extra in zip(matrix, rhs)]
    previous = 1
    for col in range(size):
        pivot = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col][col]
        for r in range(size):
            if r != col:
                factor = m[r][col]
                m[r] = [(top * x - factor * y) // previous for x, y in zip(m[r], m[col])]
        previous = top
    return previous, [row[size:] for row in m]


def oracle_gram(design):
    """The (n+1) x (n+1) Gram matrix on one or two shells, assembled entry by entry."""
    n = design.n
    d0 = c0 = c2 = Fraction(0)
    for r, _count, _ in shells_of(design).shells:
        W = sum(w for p, w in zip(design.points, design.weights) if p.weight == r)
        t_d0, t_c0, t_c2 = gram_shell_terms(n, r)
        d0, c0, c2 = d0 + W * t_d0, c0 + W * t_c0, c2 + W * t_c2
    g = [[c2] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        g[i][i] = c0
        g[i][n] = g[n][i] = d0
    g[n][n] = sum(design.weights)
    return g


def oracle_frame(design):
    n = design.n
    g = oracle_gram(design)
    evaluation = [[n - 2 * (y.bits ^ 1 << s).bit_count() for y in design.points]
                  for s in range(n)]
    evaluation.append([1] * design.size)
    size = n + 1
    # both identities over the integers: scale W and G by the common denominator
    # D of their entries; with X = d (D G)^-1 E and d = +-det(D G), the dual
    # identity E^T G^-1 E = W^-1 reads (D W) E^T X = d I
    scale = lcm(*(w.denominator for w in design.weights),
                *(entry.denominator for row in g for entry in row))
    weights = [w.numerator * (scale // w.denominator) for w in design.weights]
    gram = [[entry.numerator * (scale // entry.denominator) for entry in row] for row in g]
    for a in range(size):
        for b in range(a, size):
            if sum(weights[y] * evaluation[a][y] * evaluation[b][y]
                   for y in range(size)) != gram[a][b]:
                return False
    det, solved = oracle_solve(gram, evaluation)
    for x in range(size):
        for y in range(size):
            if (weights[x] * sum(evaluation[s][x] * solved[s][y] for s in range(size))
                    != (det if x == y else 0)):
                return False
    return True


def oracle_first_violation(design, t):
    n = design.n
    totals = {}
    for p, w in zip(design.points, design.weights):
        totals[p.weight] = totals.get(p.weight, 0) + w
    for j in range(t + 1):
        rhs = sum(W * Fraction(sum(shell_intersection(n, j, r, nu) * krawtchouk(n, j, nu)
                                   for nu in range(n + 1)), binomial(n, r))
                  for r, W in totals.items())
        for support in combinations(range(1, n + 1), j):
            u = BinaryWord.from_support(n, support)
            lhs = sum(w * krawtchouk(n, j, u.distance(y))
                      for y, w in zip(design.points, design.weights))
            if lhs != rhs:
                return (j, u, lhs, rhs)
    return None


def perturbations(design):
    """First weight doubled, last weight tripled, last point swapped within its shell."""
    points = list(design.points)
    last = points[-1].bits
    ones = [1 << i for i in range(design.n) if last >> i & 1]
    zeros = [1 << i for i in range(design.n) if not last >> i & 1]
    replacement = next(
        word for word in (BinaryWord(design.n, last ^ a ^ b) for a in ones for b in zeros)
        if word not in points
    )
    return [
        WeightedDesign(design.n, design.points, (design.weights[0] * 2,) + design.weights[1:]),
        WeightedDesign(design.n, design.points, design.weights[:-1] + (design.weights[-1] * 3,)),
        WeightedDesign(design.n, tuple(points[:-1]) + (replacement,), design.weights),
    ]


def registry_corpus():
    for _key, (_label, design) in sorted(construction_registry().items()):
        yield design, True
        for perturbed in perturbations(design):
            yield perturbed, False


def test_frame_check_matches_generic_oracle():
    for design, is_design in registry_corpus():
        assert frame_check(design) == oracle_frame(design) == is_design


def test_moments_first_violation_matches_direct_sums():
    for design, is_design in registry_corpus():
        report = moments_check(design, 2)
        assert report.ok == is_design
        assert report.first_violation == oracle_first_violation(design, 2)


def oracle_balanced(design, t):
    """balanced_check by point-by-point covering sums, as a BalancedReport."""
    lambdas = []
    for j in range(t + 1):
        for support in combinations(range(1, design.n + 1), j):
            u = BinaryWord.from_support(design.n, support)
            covered = sum(w for y, w in zip(design.points, design.weights)
                          if u.bits & ~y.bits == 0)
            if len(lambdas) == j:
                lambdas.append(covered)
            elif covered != lambdas[j]:
                return BalancedReport(t, False, None, (j, u, covered))
    return BalancedReport(t, True, tuple(lambdas), None)


def test_balanced_check_matches_direct_sums():
    for design, is_design in registry_corpus():
        report = balanced_check(design, 2)
        assert report.ok == is_design
        assert report == oracle_balanced(design, 2)


# sha256 of the lines of full_check(design, t) for t = 0..3, each line followed by
# a newline, over registry_corpus() in order
FULL_CHECK_SHA256 = "339f0b769b5a0ca2834128b3a5f0dd86a2d19ac49777990e05060d6ad3155929"


def test_full_check_output_is_pinned():
    digest = hashlib.sha256()
    for design, _ in registry_corpus():
        for t in range(4):
            for result in full_check(design, t):
                for line in result.lines:
                    digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FULL_CHECK_SHA256


def test_tightness_bound_matches_generic_rank():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 11)
        radii = rng.sample(range(1, n), min(rng.choice((1, 2)), n - 1))
        pool = [s for r in radii for s in combinations(range(1, n + 1), r)]
        supports = rng.sample(pool, rng.randint(1, min(len(pool), 2 * n)))
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in supports]
        design = make_design(n, supports, weights)
        assert tightness_check(design).bound == oracle_rank(oracle_gram(design))


def random_shell_set(rng, k):
    """A weighted set with n <= 7 and fractional weights, by k % 3: whole shells with
    one weight each (a design for every t), a random part of 1 to 3 shells, or n + 1
    points on two shells inside 1..n-1."""
    n = rng.randint(3, 7)
    if k % 3 == 2:
        radii = rng.sample(range(1, n), 2)
    else:
        radii = rng.sample(range(n + 1), rng.randint(1, 3))
    shells = [list(combinations(range(1, n + 1), r)) for r in radii]
    if k % 3 == 0:
        supports = [s for shell in shells for s in shell]
        weights = [w for shell in shells
                   for w in [Fraction(rng.randint(1, 6), rng.randint(1, 4))] * len(shell)]
    else:
        pool = [s for shell in shells for s in shell]
        supports = rng.sample(pool, n + 1 if k % 3 == 2 else rng.randint(1, min(len(pool), 12)))
        weights = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in supports]
    return make_design(n, supports, weights)


def test_checks_match_direct_sums_at_every_t():
    # t = n reaches the meet sizes at both ends of the integrand's domain,
    # max(0, r + j - n) and min(r, j); whole shells pass at every t, and the
    # constructed designs pass up to t = 2 and then report a first violation
    rng = random.Random(17)
    fano = constructions.projective_geometry(2, 2)
    corpus = [six_design(), constructions.from_symmetric_residual(fano)]
    corpus += [random_shell_set(rng, k) for k in range(40)]
    framed = 0
    for design in corpus:
        n = design.n
        for t in range(n + 1):
            report = moments_check(design, t)
            assert report.first_violation == oracle_first_violation(design, t)
            assert report.ok == (report.first_violation is None)
            assert balanced_check(design, t) == oracle_balanced(design, t)
        profile = shells_of(design)
        if profile.p == 2 and not {0, n} & set(profile.radii) and design.size == n + 1:
            assert frame_check(design) == oracle_frame(design)
            framed += 1
    assert framed >= 12


def meet_counts(design, support):
    """How many points of each weight and design weight meet the support in each
    number of coordinates: a word's count vector, by direct sums."""
    u = BinaryWord.from_support(design.n, support).bits
    return Counter((y.weight, w, (y.bits & u).bit_count())
                   for y, w in zip(design.points, design.weights))


def test_first_violation_is_the_first_word_of_its_count_vector():
    # the Hadamard pairing in H(6,2) first fails at t = 3, at the sixth word of
    # weight 3; its count vector is not the first and three later words share it,
    # so reporting another word of the vector, or the vectors in another order,
    # changes the report
    design = six_design()
    words = list(combinations(range(1, 7), 3))
    counts = [meet_counts(design, word) for word in words]
    moments, balanced = moments_check(design, 3), balanced_check(design, 3)
    assert moments.first_violation == oracle_first_violation(design, 3)
    assert balanced == oracle_balanced(design, 3)
    for j, u, *_ in (moments.first_violation, balanced.first_violation):
        position = words.index(u.support())
        assert j == 3 and position > 0
        assert counts.index(counts[position]) == position  # the first word of its vector
        assert counts.count(counts[position]) == 4


def test_reports_do_not_depend_on_the_order_of_calls():
    # t = 0..6 asks for more meet tables than the cache holds
    design = six_design()

    def reports(ts):
        return {t: (moments_check(design, t), balanced_check(design, t)) for t in ts}

    assert reports(range(7)) == reports(range(6, -1, -1))


def test_full_check_counts_each_word_once(monkeypatch):
    registry = construction_registry()
    designs = {label: design for label, design in (registry[key] for key in registry)}
    calls = []
    original = verify.meet_classes
    monkeypatch.setattr(verify, "meet_classes", lambda *args: calls.append(1) or original(*args))
    verify._meet_table.cache_clear()
    full_check(designs["hadamard[m=15]"], 2)
    assert len(calls) == 1 + 30 + 435  # the words of weight 0, 1 and 2 in H(30,2)
    calls.clear()
    verify._meet_table.cache_clear()
    for design in designs.values():
        full_check(design, 2)
    assert len(calls) == sum(1 + d.n + binomial(d.n, 2) for d in designs.values()) == 11084
