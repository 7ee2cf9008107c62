"""Constructions of tight relative 2-designs and of their input objects.

Two routes produce every known tight relative 2-design on two shells of
H(n,2), both from a symmetric 2-design: pairing the blocks of a Hadamard
2-(m, (m-1)/2, (m-3)/4) design (m = n/2 = 3 mod 4) with the coordinate
pairs, and splitting a symmetric 2-(n+1, k, lambda) design at a base point.
A Hadamard 2-design is a normalized Hadamard matrix of order m+1: border
its +-1 incidence matrix with a row and a column of +1.  The input catalogs
(Paley's Hadamard 2-designs, and the points and hyperplanes of PG(d, q),
which give Sylvester's and the projective planes) are generated from first
principles rather than bundled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .designs import WeightedDesign
from .hamming import BinaryWord, incidence_fault


class BadModulus(ValueError):
    """Paley constructions need an odd prime power q = 3 (mod 4)."""


class BadOrder(ValueError):
    """The Hadamard pairing needs a 2-(m, (m-1)/2, (m-3)/4) design with m = 3 (mod 4)."""


class UnsupportedOrder(ValueError):
    """projective_geometry only generates PG(d, q) for d >= 1 and orders q in 2..5."""


class HalfSizeBlock(ValueError):
    """The complemented split is undefined when 2k = n+1."""


class DegenerateDesign(ValueError):
    """Complementing a symmetric design with v - k < 2 is degenerate."""


# ---------------------------------------------------------------------------
# small finite fields


def _prime_power(q: int):
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k, m = 0, q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)


def _field(q: int) -> tuple[list[list[int]], list[list[int]], int]:
    """GF(q) for a prime power q = p^k as (add, mul, one): its addition and
    multiplication tables and the index of 1.  Element i is the i-th tuple c
    of product(range(p), repeat=k), the polynomial sum c[j] x^j; products are
    reduced modulo the first monic irreducible polynomial of degree k whose
    lower coefficients come in that order (x itself when k = 1).  The q - 1
    powers of the first primitive element in index order give the exp and log
    tables, from which the multiplication table is filled."""
    p, k = _prime_power(q)
    index = {c: i for i, c in enumerate(product(range(p), repeat=k))}

    def times(a, b, divisor):  # a b modulo a monic divisor of degree len(b), low degree first
        acc = [0] * len(b)
        for c in reversed(a):  # Horner's rule, acc <- x acc + c b
            acc = [(s - acc[-1] * g + c * y) % p for s, g, y in zip([0] + acc[:-1], divisor, b)]
        return tuple(acc)

    # f is irreducible when f = f 1 is nonzero modulo every monic g of lower degree
    monic = [tail + (1,) for degree in range(1, k + 1) for tail in product(range(p), repeat=degree)]
    modulus = next(f for f in monic if len(f) == k + 1 and all(
        any(times(f, (1,) + (0,) * (len(g) - 2), g)) for g in monic if len(g) <= k))

    one = (1,) + (0,) * (k - 1)
    for generator in list(index)[1:]:  # primitive: its powers reach all q - 1 units
        exp = [one]
        while (power := times(exp[-1], generator, modulus)) != one:
            exp.append(power)
        if len(exp) == q - 1:
            break
    exp = [index[power] for power in exp]
    log = {x: e for e, x in enumerate(exp)}
    add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in index] for a in index]
    mul = [[0] * q] + [[0] + [exp[(log[x] + log[y]) % (q - 1)] for y in range(1, q)]
                       for x in range(1, q)]
    return add, mul, index[one]


# ---------------------------------------------------------------------------
# symmetric 2-designs


@dataclass(frozen=True)
class SymmetricDesign:
    """A symmetric 2-(v, k, lam) design on points 0..v-1."""

    v: int
    k: int
    lam: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        v, k, lam = self.v, self.k, self.lam
        if lam * (v - 1) != k * (k - 1):
            raise ValueError(f"lam(v-1) != k(k-1) for 2-({v},{k},{lam})")
        if len(self.blocks) != v or len(set(self.blocks)) != v:
            raise ValueError("need v pairwise distinct blocks")
        if fault := incidence_fault(range(v), self.blocks, k, k, (lam,), (lam,)):
            raise ValueError(fault)


def projective_geometry(d: int, q: int) -> SymmetricDesign:
    """The 2-(v, k, (k-1)/q) design of points and hyperplanes of PG(d, q): the
    planes at d = 2, and at q = 2 Sylvester's (its +-1 incidence matrix, bordered
    with +1, is Sylvester's Hadamard matrix of order 2^(d+1)).  Points are the
    vectors of GF(q)^(d+1) with first nonzero coordinate 1, in lexicographic
    order; x lies on a's hyperplane iff a.x = 0."""
    if q not in (2, 3, 4, 5) or d < 1:
        raise UnsupportedOrder(f"PG({d}, {q}) needs d >= 1 and an order q in 2..5")
    add, mul, one = _field(q)
    points = [vec for vec in product(range(q), repeat=d + 1)
              if next((c for c in vec if c), None) == one]

    def dot(a, b):
        acc = 0
        for x, y in zip(a, b):
            acc = add[acc][mul[x][y]]
        return acc

    blocks = tuple(
        frozenset(i for i, x in enumerate(points) if dot(a, x) == 0)
        for a in points
    )
    k = len(blocks[0])
    return SymmetricDesign(len(points), k, (k - 1) // q, blocks)


def paley_design(q: int) -> SymmetricDesign:
    """The 2-(q, (q-1)/2, (q-3)/4) design of quadratic-residue translates in GF(q)."""
    if _prime_power(q) is None or q % 4 != 3:
        raise BadModulus(f"need an odd prime power q = 3 (mod 4), got {q}")
    add, mul, _one = _field(q)
    squares = {mul[x][x] for x in range(1, q)}
    blocks = tuple(frozenset(add[s][g] for s in squares) for g in range(q))
    return SymmetricDesign(q, (q - 1) // 2, (q - 3) // 4, blocks)


def complement_design(design: SymmetricDesign) -> SymmetricDesign:
    """Blockwise complement: 2-(v, v-k, v-2k+lam)."""
    if design.v - design.k < 2:
        raise DegenerateDesign("complement blocks would have fewer than 2 points")
    everything = frozenset(range(design.v))
    return SymmetricDesign(
        design.v,
        design.v - design.k,
        design.v - 2 * design.k + design.lam,
        tuple(everything - b for b in design.blocks),
    )


def hadamard_design(design: SymmetricDesign) -> WeightedDesign:
    """Tight relative 2-design in H(2m,2) from a Hadamard 2-(m, (m-1)/2, (m-3)/4) design.

    The shell X_2 part takes one word per coordinate pair {2j-1, 2j}.  The
    shell X_m part takes the word that sets every pair to (1,0) and, for
    each point i, the word that sets pair j to (1,0) when i lies in block j
    and to (0,1) otherwise: the rows of the normalized Hadamard matrix of
    order m+1 that borders the +-1 incidence matrix with +1.  Weights are 1
    on X_2 and 8/(n+2) on X_m.
    """
    m = design.v
    if m % 4 != 3 or 2 * design.k + 1 != m:  # lam = (m-3)/4 follows from lam(v-1) = k(k-1)
        raise BadOrder(f"2-({m},{design.k},{design.lam}) is not a Hadamard 2-design "
                       "2-(m, (m-1)/2, (m-3)/4) with m = 3 (mod 4)")
    n = 2 * m
    points = [BinaryWord.from_support(n, (2 * j - 1, 2 * j)) for j in range(1, m + 1)]
    points.append(BinaryWord.from_support(n, range(1, n, 2)))
    for i in range(m):
        support = (2 * j + 1 if i in block else 2 * j + 2 for j, block in enumerate(design.blocks))
        points.append(BinaryWord.from_support(n, support))
    weights = [Fraction(1)] * m + [Fraction(8, n + 2)] * (m + 1)
    return WeightedDesign(n, tuple(points), tuple(weights))


def _coordinate_map(design: SymmetricDesign, base_point: int) -> dict[int, int]:
    if not 0 <= base_point < design.v:
        raise ValueError(f"base point {base_point} outside 0..{design.v - 1}")
    rest = [x for x in range(design.v) if x != base_point]
    return {x: i + 1 for i, x in enumerate(rest)}


def from_symmetric_residual(design: SymmetricDesign, base_point: int = 0) -> WeightedDesign:
    """Split a symmetric 2-(n+1,k,lam) design at a point into shells (k-1, k).

    Blocks through the base point lose it and land on shell k-1 (there are
    k of them); blocks avoiding it keep their support and land on shell k.
    All weights are 1.
    """
    coord = _coordinate_map(design, base_point)
    n = design.v - 1
    points = []
    for block in design.blocks:
        if base_point in block:
            points.append(BinaryWord.from_support(n, (coord[x] for x in block if x != base_point)))
    for block in design.blocks:
        if base_point not in block:
            points.append(BinaryWord.from_support(n, (coord[x] for x in block)))
    return WeightedDesign(n, tuple(points), (Fraction(1),) * len(points))


def from_symmetric_complemented(design: SymmetricDesign, base_point: int = 0) -> WeightedDesign:
    """Split variant with shells (k, n-k+1), defined when 2k != n+1.

    The residual split with its first k points (shell k-1, the blocks
    through the base point) replaced by their complements within the
    remaining points (shell n-k+1).  All weights are 1.
    """
    if 2 * design.k == design.v:
        raise HalfSizeBlock("2k = n+1 would collapse both shells")
    residual = from_symmetric_residual(design, base_point)
    k = design.k
    points = tuple(p.complement() for p in residual.points[:k]) + residual.points[k:]
    return WeightedDesign(residual.n, points, residual.weights)


# ---------------------------------------------------------------------------
# Hadamard 2-designs by order, and the built catalog


def hadamard_source(order: int) -> partial:
    """The build of the Hadamard 2-design whose bordered incidence matrix has
    order 4t >= 4, unrun: a partial of projective_geometry (Sylvester's) when
    the order is a power of two, or else of paley_design on GF(order - 1),
    which raises BadModulus when order - 1 is no prime power.  Catalog entries
    reading one design compare equal."""
    if order & (order - 1) == 0:
        return partial(projective_geometry, order.bit_length() - 2, 2)
    return partial(paley_design, order - 1)


def known_designs() -> list[tuple[str, WeightedDesign]]:
    """Every catalog entry, built, in order: the designs of `catalog.registry()`
    with their labels, each base construction followed by its
    H(n,2)-complement, every first-shell weight 1.  The package reads
    `catalog.registry()` itself; the benchmark still times this function."""
    from . import catalog  # the catalog lists this module's constructions

    registry = catalog.registry()
    return [registry[key] for key in registry]
