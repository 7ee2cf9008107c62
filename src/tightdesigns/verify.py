"""Design verification: the two design criteria, tightness, and the frame identity.

A weighted set is a relative t-design when every function of degree <= t has
the same weighted sum over the set as weighted average over its shells.  The
moment and frame checks compare exactly that, one integrand f(|y|, |u ∩ y|) at
a time for the words u of weight j: `_sums` gives the design sums and
`_shell_average` the shell average.  The moment check's integrands are the
eigenfunctions Q_j(d(u, .)), j <= t; the frame identity E W E^T = G is the
same comparison at t = 2 on products of the degree-<=1 eigenfunctions.  The
balance check tests constancy instead: the weighted count of points covering
u must not depend on u of weight j.  The moment and balance criteria agree on
H(n,2); the test suite checks that equivalence on a corpus.

The design sums share one counting path: `_meet_table` counts each word's
points by Hamming weight, design weight and meet size with
`hamming.meet_classes`, once per design and j however many checks read it,
and keeps the distinct count vectors; each check evaluates its integrand on
those vectors, one integer dot product each.  The independent references are
the test suite's direct point-by-point sums and closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional

from .designs import WeightedDesign, WrongShellCount, relation_profile, shells_of, word_string
from .hamming import binomial, holders, krawtchouk, meet_classes, shell_intersection, word


class NotTight(ValueError):
    """frame_check needs a design of size exactly n+1."""


class DegenerateShells(ValueError):
    """Shell radii 0 or n are excluded from tightness analysis."""


@dataclass(frozen=True)
class MomentsReport:
    ok: bool
    # (j, u, lhs, rhs) for the first failing eigenfunction index, if any; u a bit mask
    first_violation: Optional[tuple[int, int, Fraction, Fraction]]


@dataclass(frozen=True)
class BalancedReport:
    ok: bool
    lambdas: Optional[tuple[Fraction, ...]]  # lambda_0 .. lambda_t when ok
    first_violation: Optional[tuple[int, int, Fraction]]  # (j, u, covering sum); u a bit mask


@dataclass(frozen=True)
class TightnessReport:
    size: int
    bound: int
    tight: bool


@dataclass(frozen=True)
class CheckResult:
    """One check of full_check and the lines `tightdesigns verify` prints for it."""

    name: str
    ok: bool
    lines: tuple[str, ...]


def _shell_weights(design: WeightedDesign) -> dict[int, Fraction]:
    totals: dict[int, Fraction] = {}
    for p, w in zip(design.points, design.weights):
        totals[p.bit_count()] = totals.get(p.bit_count(), Fraction(0)) + w
    return totals


@lru_cache(maxsize=4)  # j = 0..3: full_check at t <= 3 builds each table once
def _meet_table(design: WeightedDesign, j: int):
    """The meet counts of the words u of weight j: (denominator, terms, vectors).

    Points of equal (|y|, w_y) form one class and its bitset, which
    `meet_classes` splits by meet size.  terms lists (r, w_y * denominator, i)
    for each class and meet size a point of that weight can have,
    max(0, r + j - n) <= i <= min(r, j), with denominator the weights' common
    one.  vectors holds each distinct count vector (the points of each term
    meeting u) once, with the first u in `combinations` order that has it, in
    order of first occurrence.
    """
    n = design.n
    denominator = lcm(*(w.denominator for w in design.weights))
    classes: dict[tuple[int, Fraction], int] = {}
    for index, (y, w) in enumerate(zip(design.points, design.weights)):
        classes[y.bit_count(), w] = classes.get((y.bit_count(), w), 0) | 1 << index
    # members[x]: the points with coordinate x set
    members = [0] + holders(design.points, n)
    terms, masks = [], []
    for (r, w), mask in classes.items():
        for i in range(max(0, r + j - n), min(r, j) + 1):
            terms.append((r, int(w * denominator), i))
            masks.append((mask, i))
    everything = (1 << design.size) - 1
    vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
    for support in combinations(range(1, n + 1), j):
        exactly = meet_classes(members, support, everything)
        # from a list, not a generator: a tuple made from a generator once per word
        # left freed blocks in CPython's free lists and raised peak memory
        vectors.setdefault(tuple([(mask & exactly[i]).bit_count() for mask, i in masks]), support)
    return denominator, tuple(terms), tuple(vectors.items())


def _sums(design: WeightedDesign, j: int, f):
    """For each distinct meet-count vector of the words of weight j, in order of
    first occurrence: its first word's support and sum_y w(y) f(|y|, |u ∩ y|),
    which is the same for every word u with that vector.  f is evaluated once per
    term of `_meet_table`, and each sum is one integer dot product.
    """
    denominator, terms, vectors = _meet_table(design, j)
    coefficients = [c * f(r, i) for r, c, i in terms]
    for vector, support in vectors:
        yield support, Fraction(sum(map(mul, coefficients, vector)), denominator)


def _shell_average(n: int, totals: dict[int, Fraction], j: int, f) -> Fraction:
    """sum_r (W_r/C(n,r)) sum_{x in X_r} f(r, |u ∩ x|) for any word u of weight j
    in H(n,2), over the shells r of `totals` with their weights W_r: for a
    design's `_shell_weights`, the value each sum of `_sums` for j and f must
    take.  The words of X_r meeting u in i coordinates are those at distance
    r + j - 2i from u."""
    return sum((W * Fraction(sum(shell_intersection(n, j, r, r + j - 2 * i) * f(r, i)
                                 for i in range(max(0, r + j - n), min(r, j) + 1)),
                             binomial(n, r))
                for r, W in totals.items()), Fraction(0))


def moments_check(design: WeightedDesign, t: int) -> MomentsReport:
    """Compare weighted eigenfunction sums against their shell averages.

    For every j <= t and every u of weight j the design must satisfy

      sum_y w(y) Q_j(d(u,y)) = sum_r (W_r/C(n,r)) sum_{x in X_r} Q_j(d(u,x)),

    where the right side depends only on j.  Checking all such u is exactly
    the relative t-design condition, since these functions span the degree-j
    eigenspace.  A point of weight r meeting u in i coordinates lies at
    distance r + j - 2i, so the two sides are `_sums` and `_shell_average` of
    one integrand.
    """
    n = design.n
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    totals = _shell_weights(design)
    for j in range(t + 1):
        q = [krawtchouk(n, j, nu) for nu in range(n + 1)]

        def eigenfunction(r, i):
            return q[r + j - 2 * i]

        rhs = _shell_average(n, totals, j, eigenfunction)
        for support, lhs in _sums(design, j, eigenfunction):
            if lhs != rhs:
                return MomentsReport(False, (j, word(support), lhs, rhs))
    return MomentsReport(True, None)


def balanced_check(design: WeightedDesign, t: int) -> BalancedReport:
    """Check that sum of w(y) over points with support containing u, the points
    meeting u in all |u| coordinates, is constant per |u|."""
    n = design.n
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    lambdas = []
    for j in range(t + 1):
        expected: Optional[Fraction] = None
        for support, covered in _sums(design, j, lambda r, i: int(i == j)):
            if expected is None:
                expected = covered
            elif covered != expected:
                return BalancedReport(False, None, (j, word(support), covered))
        lambdas.append(expected)
    return BalancedReport(True, tuple(lambdas), None)


def tightness_check(design: WeightedDesign) -> TightnessReport:
    """Compare |Y| with n - 1 + p, the dimension of the degree-<=1 functions on p shells.

    On shells 1 <= r1 < r2 <= n-1 a relation sum_s a_s x_s + b = 0 has all a_s equal (swap
    one coordinate into a support and one out), and a*r1 = a*r2 = -b then gives a = b = 0:
    the dimension is n+1 on two shells and n on one.  With positive weights the Gram rank
    equals it.  Single-shell sets are supported so that full shells can be reported as
    non-tight.
    """
    n = design.n
    profile = shells_of(design)
    if profile.p > 2:
        raise WrongShellCount(f"need at most 2 shells, found {profile.p}")
    if any(r in (0, n) for r in profile.radii):
        raise DegenerateShells(f"shells {profile.radii} touch 0 or n")
    bound = n - 1 + profile.p
    return TightnessReport(design.size, bound, design.size == bound)


def frame_check(design: WeightedDesign) -> bool:
    """The frame identity E W E^T = G of a tight design, exactly and square-root free.

    E is the (n+1) x |Y| evaluation matrix of (phi_1..phi_n, phi_0) on the design
    points, W the diagonal weight matrix and G the Gram matrix of the phi under the
    shell average.  The dual identity E^T G^{-1} E = W^{-1} follows: G is positive
    definite (see tightness_check) and E is square, so E W E^T = G makes E invertible
    and W^{-1} = E^T G^{-1} E.  It is therefore not computed.

    With phi_s(y) = p + 4*y_s and p = n - 2|y| - 2, every entry of E W E^T is the
    design sum of a function of |y| and i = |u ∩ y|, and the entry of G is its shell
    average: for u = {} the constant 1 (the phi_0 entry), for u = {s} p + 4i and
    (p + 4i)^2 (the phi_s-phi_0 and phi_s-phi_s entries), and for u = {s, t}
    p^2 + 4pi + 16[i = 2] (the phi_s-phi_t entries, since y_s y_t = [i = 2]).
    """
    n = design.n
    profile = shells_of(design)
    if profile.p != 2:
        raise WrongShellCount(f"need exactly 2 shells, found {profile.p}")
    r1, r2 = profile.radii
    if r1 == 0 or r2 == n:
        raise DegenerateShells(f"shells ({r1}, {r2}) touch 0 or n")
    if design.size != n + 1:
        raise NotTight(f"|Y| = {design.size} != n+1 = {n + 1}")
    integrands = (  # (|u|, integrand of |y| and |u ∩ y|)
        (0, lambda r, i: 1),
        (1, lambda r, i: n - 2 * r - 2 + 4 * i),
        (1, lambda r, i: (n - 2 * r - 2 + 4 * i) ** 2),
        (2, lambda r, i: (n - 2 * r - 2) ** 2 + 4 * (n - 2 * r - 2) * i + 16 * (i == 2)),
    )
    totals = _shell_weights(design)
    for j, f in integrands:
        entry = _shell_average(n, totals, j, f)
        if any(value != entry for _, value in _sums(design, j, f)):
            return False
    return True


def weight_constancy_check(design: WeightedDesign) -> bool:
    """True iff the weight function is constant on every shell."""
    return all(constant is not None for _, _, constant in shells_of(design).shells)


def full_check(design: WeightedDesign, t: int = 2) -> list[CheckResult]:
    """Every check of a tight two-shell relative t-design, in printing order.

    The results are the moment and balance criteria at t, tightness, the
    frame identity, the relation profile and weight constancy.  A set
    the two-shell checks do not apply to (not two shells, a shell at radius
    0 or n, or not of size n+1) gets, in place of the ones it cannot take,
    a single failed "two-shell checks" result that says why.  Raises
    ValueError when t is outside 0..n.  The verify, construct and decide
    commands and selftest all read it.
    """
    results: list[CheckResult] = []

    def add(name, ok, *lines):
        results.append(CheckResult(name, ok, lines))

    moments = moments_check(design, t)
    if moments.ok:
        add("moments", True, f"moments_check (t={t}): pass")
    else:
        j, u, lhs, rhs = moments.first_violation
        add("moments", False, f"moments_check (t={t}): FAIL",
            f"  violated at j={j}, u={word_string(u, design.n)}: {lhs} != {rhs}")
    balanced = balanced_check(design, t)
    if balanced.ok:
        shown = ", ".join(f"lambda_{j}={v}" for j, v in enumerate(balanced.lambdas))
        add("balanced", True, f"balanced_check (t={t}): pass", f"  {shown}")
    else:
        j, u, observed = balanced.first_violation
        add("balanced", False, f"balanced_check (t={t}): FAIL",
            f"  violated at j={j}, u={word_string(u, design.n)}: covering sum {observed}")
    try:
        tight = tightness_check(design)
        add("tightness", tight.tight, f"tightness_check: size {tight.size} vs bound "
            f"{tight.bound}: {'tight' if tight.tight else 'NOT TIGHT'}")
        frame = frame_check(design)
        add("frame", frame, f"frame_check: {'pass' if frame else 'FAIL'}")
        relations = relation_profile(design)
        add("relations", relations.is_coherent,
            f"relation_profile: within {sorted(relations.within_first)} / "
            f"{sorted(relations.within_second)}, between {sorted(relations.between)}"
            f" ({'coherent' if relations.is_coherent else 'NOT coherent'})")
    except (WrongShellCount, DegenerateShells, NotTight) as exc:
        add("two-shell checks", False, f"two-shell checks skipped: {exc}")
    constant = weight_constancy_check(design)
    add("weight constancy", constant, f"weight_constancy_check: {'pass' if constant else 'FAIL'}")
    return results
