"""Generic exact linear algebra, the exhaustive row enumeration, the
two-equation solve for the point counts, the degree-2 moment solve for the
per-pair counts, an exhaustive integer solve of the pair-count moments, the
per-pattern compatibility scan, the popcount scan of meets, the subset
enumeration of exact covers and a cover walk that copies its counts at every
node, kept as test oracles for the closed forms, the divisibility-driven
enumeration, the moment rule, the meet recurrence and the symmetric-design
generator's exact cover and its order.

Nothing in the package uses these: the closed forms in `tightdesigns.hamming`,
`tightdesigns.feasibility.enumerate_rows`,
`tightdesigns.nonexistence.point_lambdas`,
`tightdesigns.nonexistence.pair_lambda_solutions`, the moment rule of
`tightdesigns.nonexistence.counting_filters`, the compatibility rows
of `tightdesigns.nonexistence._pattern_search`,
`tightdesigns.hamming.meet_classes` and `tightdesigns.symmetric._covers`
replace them, and the tests compare the two.
"""

from fractions import Fraction
from itertools import combinations

from tightdesigns.feasibility import candidate_row
from tightdesigns.hamming import binomial, krawtchouk, meet_classes
from tightdesigns.nonexistence import PairLambdaSolution


def enumerate_rows_exhaustive(n_min: int, n_max: int) -> list:
    """Every feasible row for n in [n_min, n_max], trying each (n, r1, r2, N1)."""
    rows = []
    for n in range(n_min, n_max + 1):
        for r1 in range(1, n):
            for r2 in range(r1 + 1, n):
                for n1 in range(2, n):
                    row = candidate_row(n, r1, r2, n1)
                    if row is not None:
                        rows.append(row)
    return rows


def point_lambdas_two_equation(row) -> tuple[Fraction, Fraction]:
    """The per-coordinate counts (lambda^(1)_1, lambda^(2)_1) from the covering
    constants alone, with weights normalized to (1, w):

      lambda^(1)_1 + w lambda^(2)_1 = lambda_1
      (r1 - 1) lambda^(1)_1 + w (r2 - 1) lambda^(2)_1 = (n - 1) lambda_2

    (the second counts the pairs through a coordinate).
    """
    first = Fraction((row.r2 - 1) * row.lambda1 - (row.n - 1) * row.lambda2, row.r2 - row.r1)
    second = ((row.n - 1) * row.lambda2 - (row.r1 - 1) * row.lambda1) / ((row.r2 - row.r1) * row.w)
    return first, second


def pair_lambda_solutions_moment(row) -> tuple:
    """Per-pair count tuples from the degree-2 moment equation and the covering
    identity alone, over the whole shell-size box.

    A pair u of coordinates splits each shell's points into those whose
    support contains u (x_i), avoids u (y_i), and the rest.  The moment
    condition at u is one exact linear equation in (x_1, y_1, x_2, y_2);
    x_1 + w x_2 = lambda_2 is another.  Inclusion-exclusion is not applied,
    so the avoid counts are constrained only by that one equation.
    """
    n = row.n
    ws = (Fraction(1), row.w)
    sizes = (row.n1, row.n2)
    radii = (row.r1, row.r2)

    def q2(u):
        return krawtchouk(n, 2, u)

    lhs = Fraction(0)
    for i in range(2):
        r = radii[i]
        acc = 0
        for delta, count in ((-2, binomial(n - 2, r - 2)), (2, binomial(n - 2, r)),
                             (0, 2 * binomial(n - 2, r - 1))):
            if count:
                acc += count * q2(r + delta)
        lhs += ws[i] * sizes[i] * Fraction(acc, binomial(n, r))
    constant = sum(ws[i] * sizes[i] * q2(radii[i]) for i in range(2))
    # coefficient of x_i is Q_2(r_i - 2) - Q_2(r_i); None marks a structurally
    # forced-zero variable (blocks too small to contain / too large to avoid a pair)
    cx = [ws[i] * (q2(radii[i] - 2) - q2(radii[i])) if radii[i] >= 2 else None
          for i in range(2)]
    cy = [ws[i] * (q2(radii[i] + 2) - q2(radii[i])) if radii[i] <= n - 2 else None
          for i in range(2)]
    solutions = []
    for x1 in range(row.n1 + 1):
        x2_exact = (row.lambda2 - x1) / row.w
        if x2_exact.denominator != 1 or not 0 <= x2_exact <= row.n2:
            continue
        x2 = int(x2_exact)
        if (cx[0] is None and x1) or (cx[1] is None and x2):
            continue
        base = constant + (cx[0] or 0) * x1 + (cx[1] or 0) * x2
        for y1 in range(row.n1 - x1 + 1):
            if cy[0] is None and y1:
                continue
            residue = lhs - base - (cy[0] or 0) * y1
            if cy[1] is None or cy[1] == 0:
                if residue == 0:
                    top = 0 if cy[1] is None else row.n2 - x2
                    solutions.extend(
                        PairLambdaSolution(x1, y1, x2, y2) for y2 in range(top + 1)
                    )
            else:
                y2_exact = residue / cy[1]
                if y2_exact.denominator == 1 and 0 <= y2_exact <= row.n2 - x2:
                    solutions.append(PairLambdaSolution(x1, y1, x2, int(y2_exact)))
    return tuple(sorted(solutions))


def moment_counts_exhaustive(values, pairs, first, second):
    """Nonnegative integers c_v, one per v in sorted `values`, with
    sum c_v = pairs, sum c_v v = first and sum c_v v^2 = second, or None.

    Every count of each value past the three least is tried; the three least
    then have at most one solution, by Lagrange interpolation on the moments:
    c_v = sum_v' c_v' prod_{u != v} (v' - u) / prod_{u != v} (v - u).
    """
    values = sorted(values)
    fixed, free = values[:3], values[3:]

    def solve(left, s1, s2):
        moments = (left, s1, s2)
        counts = []
        for v in fixed:
            poly, den = [1], 1  # prod (x - u) over the other fixed u, low degree first
            for u in fixed:
                if u != v:
                    poly = [a - u * b for a, b in zip([0] + poly, poly + [0])]
                    den *= v - u
            num = sum(c * m for c, m in zip(poly, moments))
            if num % den or num // den < 0:
                return None
            counts.append(num // den)
        if any(sum(c * v ** e for c, v in zip(counts, fixed)) != m
               for e, m in enumerate(moments)):
            return None
        return counts

    def search(chosen, left, s1, s2):
        if len(chosen) == len(free):
            counts = solve(left, s1, s2)
            return None if counts is None else counts + chosen
        v = free[len(chosen)]
        for count in range(min(left, s1 // v) + 1):
            found = search(chosen + [count], left - count, s1 - count * v, s2 - count * v * v)
            if found is not None:
                return found
        return None

    return search([], pairs, first, second)


def compatibility_rows_scan(patterns, domain, degree) -> list[int]:
    """Each pattern's compatibility row, by a scan over the pattern masks.

    Row a has bit b (b != a) when patterns a and b meet in a value of
    `domain`, and bit a when `degree`, a's meet with itself, is in it.
    """
    masks = [sum(1 << i for i in p) for p in patterns]
    domain = set(domain)
    rows = []
    for a, mask_a in enumerate(masks):
        row = 1 << a if degree in domain else 0
        for b, mask_b in enumerate(masks):
            if b != a and (mask_a & mask_b).bit_count() in domain:
                row |= 1 << b
        rows.append(row)
    return rows


def meet_classes_scan(words, support, everything) -> list[int]:
    """Entry i: the bitset of the indices j in `everything` whose word meets
    `support` in exactly i coordinates, by a popcount of each word."""
    support_mask = sum(1 << x for x in support)
    classes = [0] * (len(support) + 1)
    for j, word in enumerate(words):
        if everything >> j & 1:
            classes[(word & support_mask).bit_count()] |= 1 << j
    return classes


def exact_covers_brute(masks, need, meet=None) -> list[tuple[int, ...]]:
    """Every set of mask indices, ascending, whose masks hold bit b exactly
    need[b] times and, given `meet`, meet pairwise in `meet` bits: each
    subset of the masks is tried."""
    covers = []
    for size in range(len(masks) + 1):
        for subset in combinations(range(len(masks)), size):
            if any(sum(masks[j] >> b & 1 for j in subset) != left
                   for b, left in enumerate(need)):
                continue
            if meet is not None and any((masks[i] & masks[j]).bit_count() != meet
                                        for i, j in combinations(subset, 2)):
                continue
            covers.append(subset)
    return covers


def covers_copying(masks, holders, need, live, meet=None, chosen=()):
    """Each set of masks from `live`, a bitset of their indices, holding bit b
    need[b] times and, given `meet`, meeting pairwise in `meet` bits, as its
    indices in the order chosen; holders[b] is the bitset of the masks on b.

    Branch on the open bit with the fewest live masks, over them in index
    order.  A branch drops the masks tried before it (no cover is reached
    twice), those on the bits it fills and, given `meet`, those that do not
    meet it in `meet` bits (by the meet recurrence).  Each child copies
    `need`, reads its mask's support off every bit and splits the live masks
    by their meet with it."""
    target = None
    for b, left in enumerate(need):
        if left:
            count = (live & holders[b]).bit_count()
            if count < left:
                return
            if target is None or count < fewest:
                target, fewest = b, count
    if target is None:
        yield chosen
        return
    untried = live & holders[target]
    while untried:
        j = (untried & -untried).bit_length() - 1
        untried ^= 1 << j
        live ^= 1 << j
        support = [b for b in range(len(need)) if masks[j] >> b & 1]
        rest, full = list(need), 0
        for b in support:
            rest[b] -= 1
            if not rest[b]:
                full |= holders[b]
        child = live & ~full
        if meet is not None:  # an empty slice when the mask has fewer than `meet` bits
            child = sum(meet_classes(holders, support, child)[meet:meet + 1])
        yield from covers_copying(masks, holders, rest, child, meet, chosen + (j,))


class SingularLeadingMinor(ValueError):
    """A leading principal minor (Gram determinant) is zero."""


def gram_matrix(g) -> list[list[Fraction]]:
    """The (n+1) x (n+1) Gram matrix of GramParameters g, basis order (phi_1..phi_n, phi_0)."""
    n = g.n
    matrix = [[g.c2] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        matrix[i][i] = g.c0
        matrix[i][n] = matrix[n][i] = g.d0
    matrix[n][n] = g.weight_sum
    return matrix


def gram_schmidt_generic(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Gram-Schmidt on an arbitrary exact symmetric Gram matrix.

    Returns (expansion, norms): expansion is a lower unitriangular matrix C
    with h_i = sum_j C[i][j] phi_j, and norms[i] = ||h_{i+1}||^2 equals the
    ratio D_{i+1}/D_i of consecutive Gram determinants.  Raises
    SingularLeadingMinor when some D_j = 0.
    """
    m = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    if any(len(row) != m for row in gram):
        raise ValueError("gram matrix must be square")
    for i in range(m):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise ValueError("gram matrix must be symmetric")
    expansion: list[list[Fraction]] = []
    norms: list[Fraction] = []
    # inner[i][a] = <h_{i+1}, phi_{a+1}>, kept to make each step O(m^2)
    inner: list[list[Fraction]] = []
    for i in range(m):
        coeffs = [Fraction(0)] * m
        coeffs[i] = Fraction(1)
        for j in range(i):
            if norms[j] == 0:
                raise SingularLeadingMinor(f"Gram determinant D_{j + 1} = 0")
            mu = inner[j][i] / norms[j]
            for a in range(j + 1):
                coeffs[a] -= mu * expansion[j][a]
        row_inner = [
            sum(coeffs[a] * gram[a][b] for a in range(i + 1)) for b in range(m)
        ]
        norms.append(sum(coeffs[a] * row_inner[a] for a in range(i + 1)))
        expansion.append(coeffs)
        inner.append(row_inner)
    return expansion, norms
