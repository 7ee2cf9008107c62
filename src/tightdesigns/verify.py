"""Design verification: the two design criteria, tightness, and the frame identity.

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
    binomial,
    gram_closed_form,
    krawtchouk,
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


def _weight_groups(design: WeightedDesign, t: int) -> dict[Fraction, list[int]]:
    """The points' bit masks grouped by weight value; raises ValueError unless 0 <= t <= n."""
    if not 0 <= t <= design.n:
        raise ValueError(f"t={t} outside 0..{design.n}")
    groups: dict[Fraction, list[int]] = {}
    for y, w in zip(design.points, design.weights):
        groups.setdefault(w, []).append(y.bits)
    return groups


def _words_of_weight(n: int, j: int):
    for support in combinations(range(1, n + 1), j):
        yield BinaryWord.from_support(n, support)


def moments_check(design: WeightedDesign, t: int) -> MomentsReport:
    """Compare weighted eigenfunction sums against their shell averages.

    For every j <= t and every u of weight j the design must satisfy

      sum_y w(y) Q_j(d(u,y)) = sum_r (W_r/C(n,r)) sum_nu |X_r ∩ Γ_nu(u)| Q_j(nu),

    where the right side depends only on j.  Checking all such u is exactly
    the relative t-design condition, since these functions span the degree-j
    eigenspace.  The inner nu sum is Q_r(j) Q_j(j) in closed form: it equals
    sum_{x in X_r} Q_j(d(u,x)) = sum_{|v|=j} (-1)^{v.u} sum_{x in X_r} (-1)^{v.x},
    and the last sum is Q_r(|v|).
    """
    n = design.n
    # Q_j values are integers: sum them per weight value, then weight each sum once
    groups = _weight_groups(design, t)
    totals = _shell_weights(design)
    for j in range(t + 1):
        q = [krawtchouk(n, j, nu) for nu in range(n + 1)]
        rhs = Fraction(0)
        for r, W in totals.items():
            rhs += W * Fraction(krawtchouk(n, r, j) * q[j], binomial(n, r))
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
    # count covering points per weight value, then weight each count once
    groups = _weight_groups(design, t)
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
    points, W the diagonal weight matrix and G the closed-form Gram matrix.  The dual
    identity E^T G^{-1} E = W^{-1} follows: G is positive definite (see tightness_check)
    and E is square, so E W E^T = G makes E invertible and W^{-1} = E^T G^{-1} E.

    With phi_s(y) = p_y + 4*y_s and p_y = n - 2|y| - 2, every entry of E W E^T is a
    sum over classes of points with equal (|y|, w_y) of integer counts: the class
    size, the points with y_s = 1, and those with y_s = y_t = 1, each a popcount of
    per-coordinate bit-mask columns.
    """
    n = design.n
    gram = _two_shell_gram(design)
    if design.size != n + 1:
        raise NotTight(f"|Y| = {design.size} != n+1 = {n + 1}")
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
