import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from oracles import (
    SingularLeadingMinor,
    gram_schmidt_generic,
    meet_classes_scan,
    shell_config_scan,
    symmetric_design_scan,
)
from tightdesigns import catalog, constructions
from tightdesigns.constructions import SymmetricDesign
from tightdesigns.feasibility import enumerate_rows
from tightdesigns.hamming import (
    BinaryWord,
    binomial,
    gram_closed_form,
    incidence_fault,
    krawtchouk,
    meet_classes,
    shell_intersection,
    subset_members,
    unrank_subset,
)
from tightdesigns.nonexistence import check_shell_config, csp_search, pair_lambda_solutions


def pascal_binomial(n, k):
    """Independent oracle: Pascal's triangle by rows."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[k] if 0 <= k <= n else 0


def test_binomial_examples():
    assert binomial(6, 2) == 15
    assert binomial(12, 0) == 1
    assert binomial(30, 15) == pascal_binomial(30, 15) == 155117520


def test_binomial_out_of_range():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_binomial_matches_pascal(n):
    for k in range(-1, n + 2):
        assert binomial(n, k) == pascal_binomial(n, k)


def test_krawtchouk_examples():
    assert krawtchouk(6, 1, 2) == 2
    for n in (3, 7, 12):
        for u in range(n + 1):
            assert krawtchouk(n, 0, u) == 1
    assert krawtchouk(6, 2, 2) == -1


def test_krawtchouk_range_errors():
    with pytest.raises(ValueError):
        krawtchouk(6, 7, 0)
    with pytest.raises(ValueError):
        krawtchouk(6, 0, -1)


@pytest.mark.parametrize("n", range(1, 11))
def test_krawtchouk_identities(n):
    q = [[krawtchouk(n, k, u) for u in range(n + 1)] for k in range(n + 1)]
    for k in range(n + 1):
        assert q[k][0] == binomial(n, k)
        assert q[1][k] == n - 2 * k
        for u in range(n + 1):
            # reciprocity
            assert binomial(n, u) * q[k][u] == binomial(n, k) * q[u][k]
        for l in range(n + 1):
            total = sum(binomial(n, u) * q[k][u] * q[l][u] for u in range(n + 1))
            assert total == (2**n * binomial(n, k) if k == l else 0)


def brute_shell_intersection(n, j, r, nu):
    """Enumerate the shell X_r and count words at distance nu from a weight-j word."""
    u = BinaryWord.from_support(n, range(1, j + 1))
    count = 0
    for support in combinations(range(1, n + 1), r):
        if BinaryWord.from_support(n, support).distance(u) == nu:
            count += 1
    return count


def test_shell_intersection_examples():
    assert shell_intersection(6, 1, 2, 1) == brute_shell_intersection(6, 1, 2, 1) == 5
    assert shell_intersection(6, 1, 2, 3) == brute_shell_intersection(6, 1, 2, 3) == 10
    for n, r in ((6, 2), (9, 4), (12, 5)):
        assert shell_intersection(n, 0, r, r) == binomial(n, r)


@pytest.mark.parametrize("n", (5, 7, 8))
def test_shell_intersection_brute(n):
    for j in range(n + 1):
        for r in range(n + 1):
            for nu in range(n + 1):
                assert shell_intersection(n, j, r, nu) == brute_shell_intersection(n, j, r, nu)


@pytest.mark.parametrize("n", range(1, 11))
def test_shell_intersection_row_sums(n):
    for j in range(n + 1):
        for r in range(n + 1):
            assert sum(shell_intersection(n, j, r, nu) for nu in range(n + 1)) == binomial(n, r)


@pytest.mark.parametrize("n", range(1, 17))
def test_shell_intersection_moments_closed_form(n):
    # sum over X_r of Q_j(d(u, x)) for |u| = j, the right side moments_check uses
    for j in range(n + 1):
        for r in range(n + 1):
            assert (sum(shell_intersection(n, j, r, nu) * krawtchouk(n, j, nu)
                        for nu in range(n + 1)) == krawtchouk(n, r, j) * krawtchouk(n, j, j))


def brute_gram(n, r1, r2, W1, W2):
    """Direct weighted shell summation of the eigenfunction inner products."""
    e1 = BinaryWord.from_support(n, (1,))
    e2 = BinaryWord.from_support(n, (2,))
    d0 = c0 = c2 = Fraction(0)
    for r, W in ((r1, W1), (r2, W2)):
        s_d0 = s_c0 = s_c2 = 0
        for support in combinations(range(1, n + 1), r):
            x = BinaryWord.from_support(n, support)
            q1 = krawtchouk(n, 1, e1.distance(x))
            s_d0 += q1
            s_c0 += q1 * q1
            s_c2 += q1 * krawtchouk(n, 1, e2.distance(x))
        scale = Fraction(W, binomial(n, r))
        d0 += scale * s_d0
        c0 += scale * s_c0
        c2 += scale * s_c2
    return d0, c0, c2


def test_gram_closed_form_example():
    g = gram_closed_form(6, 2, 3, Fraction(3), Fraction(4))
    assert (g.d0, g.c0, g.c2) == (4, 32, 0)
    assert (g.d0, g.c0, g.c2) == brute_gram(6, 2, 3, Fraction(3), Fraction(4))
    assert g.weight_sum == 7


@pytest.mark.parametrize("n", range(4, 9))
def test_gram_closed_form_brute(n):
    W1, W2 = Fraction(5, 3), Fraction(7, 2)
    for r1 in range(1, n - 1):
        for r2 in range(r1 + 1, n):
            g = gram_closed_form(n, r1, r2, W1, W2)
            assert (g.d0, g.c0, g.c2) == brute_gram(n, r1, r2, W1, W2)


def test_gram_closed_form_complement_symmetry():
    # r1 = n - r2 with equal weights makes the linear term cancel
    for n, r1 in ((8, 2), (10, 3), (12, 5)):
        g = gram_closed_form(n, r1, n - r1, Fraction(2), Fraction(2))
        assert g.d0 == 0


def test_gram_closed_form_errors():
    with pytest.raises(ValueError):
        gram_closed_form(6, 0, 3, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        gram_closed_form(6, 3, 6, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        gram_closed_form(6, 3, 2, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        gram_closed_form(6, 2, 3, Fraction(0), Fraction(1))


def test_gram_schmidt_generic_identity_and_two_by_two():
    _, norms = gram_schmidt_generic([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert norms == [1, 1]
    c0, c2 = Fraction(5), Fraction(2)
    _, norms = gram_schmidt_generic([[c0, c2], [c2, c0]])
    assert norms[1] == (c0 - c2) * (c0 + c2) / c0


def test_gram_schmidt_generic_errors():
    with pytest.raises(SingularLeadingMinor):
        gram_schmidt_generic([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        gram_schmidt_generic([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]])


def test_binary_word_basics():
    w = BinaryWord.from_string("110000")
    assert w.n == 6 and w.weight == 2 and w.support() == (1, 2)
    assert w.to_string() == "110000"
    assert w == BinaryWord.from_support(6, (1, 2))
    v = BinaryWord.from_support(6, (2, 3, 4))
    assert w.distance(v) == 3
    assert w.complement().support() == (3, 4, 5, 6)
    assert w.complement().complement() == w


def test_binary_word_errors():
    with pytest.raises(ValueError):
        BinaryWord.from_string("10x0")
    with pytest.raises(ValueError):
        BinaryWord.from_support(4, (0,))
    with pytest.raises(ValueError):
        BinaryWord.from_support(4, (5,))
    with pytest.raises(ValueError):
        BinaryWord.from_string("100").distance(BinaryWord.from_string("1000"))


def test_meet_classes_match_the_popcount_scan():
    rng = random.Random(15)
    for _ in range(300):
        width, count = rng.randint(1, 8), rng.randint(0, 40)
        words = [rng.getrandbits(width) for _ in range(count)]
        members = [sum(1 << j for j, word in enumerate(words) if word >> x & 1)
                   for x in range(width)]
        support = rng.sample(range(width), rng.randint(0, width))
        everything = rng.choice([(1 << count) - 1, rng.getrandbits(count)])
        classes = meet_classes(members, support, everything)
        assert classes == meet_classes_scan(words, support, everything)
        assert len(classes) == len(support) + 1


@pytest.mark.parametrize("n", range(0, 10))
def test_subsets_unrank_and_members_match_combinations(n):
    # every size, degree 1 and n - 1 included
    for k in range(n + 1):
        subsets = list(combinations(range(n), k))
        assert [unrank_subset(n, k, j) for j in range(len(subsets))] == subsets
        assert subset_members(n, k) == [sum(1 << j for j, s in enumerate(subsets) if x in s)
                                        for x in range(n)]


def test_incidence_fault_names_the_first_broken_condition():
    fano = [[1, 3, 5], [0, 3, 4], [2, 3, 6], [0, 1, 2], [1, 4, 6], [0, 5, 6], [2, 4, 5]]
    assert incidence_fault(range(7), fano, 3, 3, {1}, {1}) is None
    assert incidence_fault(range(1, 8), [[x + 1 for x in b] for b in fano], 3, 3, {1}, {1}) is None
    assert incidence_fault(range(6), fano, 3, 3, {1}, {1}) == "point 6 outside 0..5"
    assert incidence_fault(range(7), fano, 4, 3, {1}, {1}) == "blocks must be 4-subsets of 0..6"
    assert (incidence_fault(range(7), fano, 3, 2, {1}, {1})
            == "every point must lie in exactly 2 blocks")
    assert incidence_fault(range(7), fano, 3, 3, {1}, {0, 2}) == "pair (0,1) lies in 1 blocks"
    assert incidence_fault(range(7), fano, 3, 3, {0, 2}, {1}) == "two blocks meet in 1 points"


def broken_copies(blocks, ground: range, outside):
    """The blocks, as sorted lists, each with one change that breaks them: a
    point of the first block moved to a point it lacks, a point repeated in
    it in place of another (when it has two), a point of `outside` put in it,
    the first block dropped, the last replaced by a copy of the first."""
    blocks = [sorted(block) for block in blocks]
    first, rest = blocks[0], blocks[1:]
    lacking = next(x for x in ground if x not in first)
    yield [[lacking] + first[1:]] + rest
    if len(first) > 1:
        yield [first[:-1] + first[:1]] + rest
    for x in outside:
        yield [first[:-1] + [x]] + rest
    yield rest
    yield blocks[:-1] + [first]


def swapped(blocks):
    """The blocks with a point of the first and a point of the second, each
    missing from the other, swapped: every degree is kept."""
    first, second, *rest = [sorted(block) for block in blocks]
    x = next(p for p in first if p not in second)
    y = next(p for p in second if p not in first)
    return [[y if p == x else p for p in first], [x if p == y else p for p in second]] + rest


def symmetric_designs():
    """The catalog's symmetric designs (Hadamard 2-designs of orders 4..16 and
    the designs it splits), then PG(d, 2) for v = 3..63."""
    sources = [constructions.hadamard_source(m + 1) for m in (3, 7, 11, 15)]
    sources += [source for _name, _v, _k, source in catalog.SYMMETRIC]
    sources += [partial(constructions.projective_geometry, d, 2) for d in range(1, 6)]
    return [source() for source in sources]


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


def test_incidence_fault_agrees_with_the_symmetric_design_scan():
    for design in symmetric_designs():
        v, k, lam = design.v, design.k, design.lam
        relabeled = [[v - 1 - x for x in block] for block in design.blocks]
        cases = [(design.blocks, True), (relabeled, True), (swapped(design.blocks), None)]
        cases += [(blocks, False) for blocks in broken_copies(design.blocks, range(v), [v])]
        for blocks, valid in cases:
            blocks = tuple(map(frozenset, blocks))  # a repeated point drops out
            new = accepts(SymmetricDesign, v, k, lam, blocks)
            assert new == accepts(symmetric_design_scan, v, k, lam, blocks)
            assert valid is None or new == valid


def test_incidence_fault_agrees_with_the_witness_scan():
    witnesses = 0
    for row in enumerate_rows(6, 30):
        solutions = pair_lambda_solutions(row)
        for shell in (1, 2) if solutions else ():
            verdict = csp_search(row, shell, solutions, budget=50000)
            if not verdict.found:
                continue
            witnesses += 1
            found = verdict.witness["blocks"]
            relabeled = [[row.n + 1 - x for x in block] for block in found]
            cases = [(found, True), (relabeled, True), (swapped(found), None)]
            cases += [(blocks, False)
                      for blocks in broken_copies(found, range(1, row.n + 1), [0, row.n + 1])]
            for blocks, valid in cases:
                new = check_shell_config(row, shell, solutions, blocks)
                assert new == shell_config_scan(row, shell, solutions, blocks)
                assert valid is None or new == valid
    assert witnesses == 62
