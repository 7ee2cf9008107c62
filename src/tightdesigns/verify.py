"""Design verification: the two design criteria, tightness, and the frame identities.

Two independent criteria decide whether a weighted set is a relative
t-design: the moment criterion (weighted sums of eigenfunction values equal
their shell averages) and the balance criterion (weighted counts of points
covering a fixed j-subset are constant per j).  They agree on H(n,2);
the test suite checks that equivalence on a corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .designs import WeightedDesign, WrongShellCount, relation_profile, shells_of
from .hamming import (
    BinaryWord,
    KrawtchoukTable,
    binomial,
    gram_closed_form,
    gram_shell_terms,
    shell_intersection,
)


class NotTight(ValueError):
    """frame_check needs a design of size exactly n+1."""


class DegenerateShells(ValueError):
    """Shell radii 0 or n are excluded from tightness analysis."""


@dataclass(frozen=True)
class MomentsReport:
    t: int
    ok: bool
    # (j, u, lhs, rhs) for the first failing eigenfunction index, if any
    first_violation: Optional[tuple[int, BinaryWord, Fraction, Fraction]]


@dataclass(frozen=True)
class BalancedReport:
    t: int
    ok: bool
    lambdas: Optional[tuple[Fraction, ...]]  # lambda_0 .. lambda_t when ok
    first_violation: Optional[tuple[int, BinaryWord, Fraction]]


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
    # MomentsReport, BalancedReport, TightnessReport, RelationProfile, a bool
    # for the frame and weight-constancy checks, None for skipped two-shell checks
    report: object
    lines: tuple[str, ...]


def _shell_weights(design: WeightedDesign) -> dict[int, Fraction]:
    totals: dict[int, Fraction] = {}
    for p, w in zip(design.points, design.weights):
        totals[p.weight] = totals.get(p.weight, Fraction(0)) + w
    return totals


def _words_of_weight(n: int, j: int):
    for support in combinations(range(1, n + 1), j):
        yield BinaryWord.from_support(n, support)


def moments_check(design: WeightedDesign, t: int) -> MomentsReport:
    """Compare weighted eigenfunction sums against their shell averages.

    For every j <= t and every u of weight j the design must satisfy

      sum_y w(y) Q_j(d(u,y)) = sum_r (W_r/C(n,r)) sum_nu |X_r ∩ Γ_nu(u)| Q_j(nu),

    where the right side depends only on j.  Checking all such u is exactly
    the relative t-design condition, since these functions span the degree-j
    eigenspace.
    """
    n = design.n
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    table = KrawtchoukTable(n)
    totals = _shell_weights(design)
    # Q_j values are integers: sum them per weight value, then weight each sum once
    groups: dict[Fraction, list[int]] = {}
    for y, w in zip(design.points, design.weights):
        groups.setdefault(w, []).append(y.bits)
    for j in range(t + 1):
        rhs = Fraction(0)
        for r, W in totals.items():
            acc = sum(
                shell_intersection(n, j, r, nu) * table(j, nu) for nu in range(n + 1)
            )
            rhs += W * Fraction(acc, binomial(n, r))
        q = [table(j, nu) for nu in range(n + 1)]
        for u in _words_of_weight(n, j):
            lhs = sum(
                w * sum(q[(u.bits ^ y).bit_count()] for y in ys) for w, ys in groups.items()
            )
            if lhs != rhs:
                return MomentsReport(t, False, (j, u, lhs, rhs))
    return MomentsReport(t, True, None)


def balanced_check(design: WeightedDesign, t: int) -> BalancedReport:
    """Check that sum of w(y) over points with support containing u is constant per |u|."""
    n = design.n
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    # count covering points per weight value, then weight each count once
    groups: dict[Fraction, list[int]] = {}
    for y, w in zip(design.points, design.weights):
        groups.setdefault(w, []).append(y.bits)
    lambdas = []
    for j in range(t + 1):
        expected: Optional[Fraction] = None
        for u in _words_of_weight(n, j):
            covered = sum(
                (w * sum(1 for y in ys if y & u.bits == u.bits) for w, ys in groups.items()),
                Fraction(0),
            )
            if expected is None:
                expected = covered
            elif covered != expected:
                return BalancedReport(t, False, None, (j, u, covered))
        lambdas.append(expected)
    return BalancedReport(t, True, tuple(lambdas), None)


def _two_shell_gram(design: WeightedDesign):
    profile = shells_of(design)
    if profile.p != 2:
        raise WrongShellCount(f"need exactly 2 shells, found {profile.p}")
    r1, r2 = profile.radii
    if r1 == 0 or r2 == design.n:
        raise DegenerateShells(f"shells ({r1}, {r2}) touch 0 or n")
    totals = _shell_weights(design)
    return gram_closed_form(design.n, r1, r2, totals[r1], totals[r2])


def _span_block(n: int, d0: Fraction, c0: Fraction, c2: Fraction, weight_sum: Fraction):
    """The Gram matrix restricted to span{(1,...,1, 0), (0,...,0, 1)}.

    The Gram matrix c0*I + c2*(J-I), bordered by d0 and W1+W2, maps that span
    into itself by this 2x2 matrix (columns are the images of the two basis
    vectors) and acts as (c0 - c2)*I on its orthogonal complement, the
    (n-1)-dimensional space of vectors (v, 0) with sum(v) = 0.
    """
    return ((c0 + (n - 1) * c2, d0), (n * d0, weight_sum))


def tightness_check(design: WeightedDesign) -> TightnessReport:
    """Compare |Y| with dim of the restricted degree-<=1 function space.

    The dimension is the rank of the (n+1) x (n+1) Gram matrix of the
    closed-form inner products.  That matrix splits into (c0 - c2)*I on an
    (n-1)-dimensional subspace and a 2x2 block K on its complement (see
    _span_block), so its rank is (n-1)*[c0 != c2] + rank(K), computed
    exactly, never by evaluating functions on whole shells.  For two shells
    with 1 <= r1 < r2 <= n-1 it equals n+1.  Single-shell sets are supported
    so that full shells can be reported as non-tight.
    """
    n = design.n
    profile = shells_of(design)
    if profile.p > 2:
        raise WrongShellCount(f"need at most 2 shells, found {profile.p}")
    if any(r in (0, n) for r in profile.radii):
        raise DegenerateShells(f"shells {profile.radii} touch 0 or n")
    totals = _shell_weights(design)
    d0 = c0 = c2 = Fraction(0)
    for r, W in totals.items():
        t_d0, t_c0, t_c2 = gram_shell_terms(n, r)
        d0 += W * t_d0
        c0 += W * t_c0
        c2 += W * t_c2
    (a, b), (c, d) = _span_block(n, d0, c0, c2, sum(totals.values()))
    # K is never zero (its corner W1+W2 is positive), so its rank is 1 or 2
    bound = (n - 1) * (c0 != c2) + (2 if a * d != b * c else 1)
    return TightnessReport(design.size, bound, design.size == bound)


def frame_check(design: WeightedDesign) -> bool:
    """Exact dual-frame identities of a tight design, in square-root-free form.

    With E the (n+1) x |Y| evaluation matrix of (phi_1..phi_n, phi_0) on the
    design points, W the diagonal weight matrix, and G the closed-form Gram
    matrix, a tight relative 2-design satisfies E W E^T = G and
    E^T G^{-1} E = W^{-1} exactly.  Both are checked entry by entry through
    closed forms in the weights |y| and the overlaps |x ∧ y| of the points,
    with G^{-1} taken from the splitting described in _span_block.
    """
    n = design.n
    gram = _two_shell_gram(design)
    if design.size != n + 1:
        raise NotTight(f"|Y| = {design.size} != n+1 = {n + 1}")
    return _frame_gram_identity(design, gram) and _frame_dual_identity(design, gram)


def _frame_gram_identity(design: WeightedDesign, gram) -> bool:
    """E W E^T = G, using phi_s(y) = p_y + 4*y_s with p_y = n - 2|y| - 2.

    Every entry is then a sum over classes of points with equal (|y|, w_y)
    of integer counts: the class size, the points with y_s = 1, and those
    with y_s = y_t = 1, each a popcount of per-coordinate bit-mask columns.
    """
    n = design.n
    classes: dict[tuple[int, Fraction], int] = {}
    columns = [0] * n
    for i, (y, w) in enumerate(zip(design.points, design.weights)):
        classes[y.weight, w] = classes.get((y.weight, w), 0) | 1 << i
        for s in range(n):
            if y.bits >> s & 1:
                columns[s] |= 1 << i
    terms = []  # (w, p, class mask, class size, per-coordinate counts)
    for (weight, w), mask in classes.items():
        along = [(mask & col).bit_count() for col in columns]
        terms.append((w, n - 2 * weight - 2, mask, mask.bit_count(), along))
    if sum(w * size for w, _, _, size, _ in terms) != gram.weight_sum:
        return False
    for s in range(n):
        if sum(w * (p * size + 4 * along[s]) for w, p, _, size, along in terms) != gram.d0:
            return False
        for t in range(s, n):
            both = columns[s] & columns[t]
            value = sum(
                w * (p * p * size + 4 * p * (along[s] + along[t])
                     + 16 * (mask & both).bit_count())
                for w, p, mask, size, along in terms
            )
            if value != (gram.c0 if s == t else gram.c2):
                return False
    return True


def _frame_dual_identity(design: WeightedDesign, gram) -> bool:
    """E^T G^{-1} E = W^{-1}, from the splitting of G in _span_block.

    The column of E at y is (p_y + 4y, 1).  Its part orthogonal to the span
    is (4(y - |y|/n), 0), on which G^{-1} is 1/(c0 - c2); its part in the
    span has coordinates (m_y, 1) with m_y = p_y + 4|y|/n, on which G^{-1}
    is K^{-1}.  With (s_x, t_x) = K^{-1}(m_x, 1), entry (x, y) is

      16(n|x ∧ y| - |x||y|) / (n(c0 - c2)) + n*m_y*s_x + t_x.
    """
    n, d0, c0, c2 = design.n, gram.d0, gram.c0, gram.c2
    (a, b), (c, d) = _span_block(n, d0, c0, c2, gram.weight_sum)
    det = a * d - b * c
    span_terms = {}  # |y| -> (m_y, s_y, t_y)
    for y in design.points:
        m = Fraction(n * (n - 2 * y.weight - 2) + 4 * y.weight, n)
        span_terms[y.weight] = (m, (d * m - b) / det, (a - c * m) / det)
    values: dict[tuple[int, int, int], Fraction] = {}

    def entry(size_x: int, size_y: int, overlap: int) -> Fraction:
        key = (size_x, size_y, overlap)
        if key not in values:
            _, s_x, t_x = span_terms[size_x]
            values[key] = (Fraction(16 * (n * overlap - size_x * size_y), n) / (c0 - c2)
                           + n * span_terms[size_y][0] * s_x + t_x)
        return values[key]

    points, weights = design.points, design.weights
    for i, x in enumerate(points):
        if entry(x.weight, x.weight, x.weight) != 1 / weights[i]:
            return False
        for y in points[i + 1:]:
            if entry(x.weight, y.weight, (x.bits & y.bits).bit_count()) != 0:
                return False
    return True


def weight_constancy_check(design: WeightedDesign) -> bool:
    """True iff the weight function is constant on every shell."""
    return all(constant is not None for _, _, constant in shells_of(design).shells)


def full_check(design: WeightedDesign, t: int = 2) -> list[CheckResult]:
    """Every check of a tight two-shell relative t-design, in printing order.

    The results are the moment and balance criteria at t, tightness, the
    frame identities, the relation profile and weight constancy.  A set
    the two-shell checks do not apply to (not two shells, a shell at radius
    0 or n, or not of size n+1) gets, in place of the ones it cannot take,
    a single failed "two-shell checks" result that says why.  Raises
    ValueError when t is outside 0..n.
    """
    results: list[CheckResult] = []

    def add(name, ok, report, *lines):
        results.append(CheckResult(name, ok, report, lines))

    moments = moments_check(design, t)
    if moments.ok:
        add("moments", True, moments, f"moments_check (t={t}): pass")
    else:
        j, u, lhs, rhs = moments.first_violation
        add("moments", False, moments, f"moments_check (t={t}): FAIL",
            f"  violated at j={j}, u={u.to_string()}: {lhs} != {rhs}")
    balanced = balanced_check(design, t)
    if balanced.ok:
        shown = ", ".join(f"lambda_{j}={v}" for j, v in enumerate(balanced.lambdas))
        add("balanced", True, balanced, f"balanced_check (t={t}): pass", f"  {shown}")
    else:
        j, u, observed = balanced.first_violation
        add("balanced", False, balanced, f"balanced_check (t={t}): FAIL",
            f"  violated at j={j}, u={u.to_string()}: covering sum {observed}")
    try:
        tight = tightness_check(design)
        add("tightness", tight.tight, tight, f"tightness_check: size {tight.size} vs bound "
            f"{tight.bound}: {'tight' if tight.tight else 'NOT TIGHT'}")
        frame = frame_check(design)
        add("frame", frame, frame, f"frame_check: {'pass' if frame else 'FAIL'}")
        relations = relation_profile(design)
        add("relations", relations.is_coherent, relations,
            f"relation_profile: within {sorted(relations.within_first)} / "
            f"{sorted(relations.within_second)}, between {sorted(relations.between)}"
            f" ({'coherent' if relations.is_coherent else 'NOT coherent'})")
    except (WrongShellCount, DegenerateShells, NotTight) as exc:
        add("two-shell checks", False, None, f"two-shell checks skipped: {exc}")
    constant = weight_constancy_check(design)
    add("weight constancy", constant, constant,
        f"weight_constancy_check: {'pass' if constant else 'FAIL'}")
    return results
