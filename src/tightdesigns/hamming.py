"""Exact primitives of the binary Hamming scheme H(n,2).

Everything here is integer or rational arithmetic: binomial coefficients,
Krawtchouk polynomials, shell intersection counts, words split by their meet
with a support, k-subsets by rank and by member, the closed-form Gram data of
the degree-<=1 eigenfunctions on two shells and its closed-form Gram-Schmidt
orthogonalization.  No floating point; intermediate integers routinely exceed
64 bits (C(30,15)^2 scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


class DegenerateGram(ValueError):
    """A closed-form Gram-Schmidt denominator vanished."""


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def krawtchouk(n: int, k: int, u: int) -> int:
    """Krawtchouk value Q_k(u) = sum_i (-1)^i C(n-u, k-i) C(u, i).

    Q_k is the common eigenvalue function of H(n,2) (its first and second
    eigenmatrices coincide); in particular Q_0 = 1 and Q_1(u) = n - 2u.
    """
    if not (0 <= k <= n and 0 <= u <= n):
        raise ValueError(f"krawtchouk indices out of range: n={n}, k={k}, u={u}")
    return sum((-1) ** i * binomial(n - u, k - i) * binomial(u, i) for i in range(k + 1))


@dataclass(frozen=True, order=True)
class BinaryWord:
    """A word of {0,1}^n with 1-based coordinates, stored as a bit mask."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length must be positive")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits outside the coordinate range")

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        """Parse a bit string like '110000'; string index 0 is coordinate 1."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    @classmethod
    def from_support(cls, n: int, support) -> "BinaryWord":
        bits = 0
        for i in support:
            if not 1 <= i <= n:
                raise ValueError(f"coordinate {i} outside 1..{n}")
            bits |= 1 << (i - 1)
        return cls(n, bits)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.n))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def distance(self, other: "BinaryWord") -> int:
        if self.n != other.n:
            raise ValueError("words of different length")
        return (self.bits ^ other.bits).bit_count()

    def complement(self) -> "BinaryWord":
        return BinaryWord(self.n, self.bits ^ ((1 << self.n) - 1))


def shell_intersection(n: int, j: int, r: int, nu: int) -> int:
    """|X_r intersect Gamma_nu(u)| for any word u of weight j.

    Nonzero only when nu = j + r - 2i for an integer i (the overlap of the
    two supports); the count is then C(j, i) * C(n-j, r-i).
    """
    if not (0 <= j <= n and 0 <= r <= n and 0 <= nu <= n):
        raise ValueError(f"shell_intersection arguments out of range: {(n, j, r, nu)}")
    twice_i = j + r - nu
    if twice_i < 0 or twice_i % 2:
        return 0
    i = twice_i // 2
    if i > min(j, r):
        return 0
    return binomial(j, i) * binomial(n - j, r - i)


def meet_classes(members, support, everything: int) -> list[int]:
    """Entry i: the words of `everything` meeting `support` in i coordinates,
    members[x] being the bitset of the words on coordinate x.  The meet
    recurrence moves the words on each coordinate of `support` up one class.
    Three users: the search's compatibility rows (nonexistence), the exact cover
    of the symmetric-design generator (symmetric), and the weighted sums of the
    moment, balance and frame checks (verify)."""
    exactly = [everything]
    for x in support:
        bits = members[x]
        exactly = [low ^ (low ^ high) & bits for low, high in zip(exactly + [0], [0] + exactly)]
    return exactly


def unrank_subset(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The k-subset of range(n) at this index in the order of
    itertools.combinations: the C(n-x-1, k-1) subsets that start at x come
    before those that start higher."""
    subset = []
    for x in range(n):
        if not k:
            break
        first = comb(n - x - 1, k - 1)
        if rank < first:
            subset.append(x)
            k -= 1
        else:
            rank -= first
    return tuple(subset)


def subset_members(n: int, k: int) -> list[int]:
    """Entry x: the bitset of the k-subsets of range(n) that hold x, bit j
    standing for the subset unrank_subset(n, k, j).  Among the subsets of
    range(s, n), those that hold s come first, then those of range(s+1, n);
    `level` maps each size to the members over range(s, n), from s = n down."""
    level = {0: []}
    for s in range(n - 1, -1, -1):
        below, zeros, level = level, [0] * (n - s - 1), {}
        for size in range(max(0, k - s), min(k, n - s) + 1):
            first = binomial(n - s - 1, size - 1)  # the subsets that hold s
            level[size] = [(1 << first) - 1] + [
                low | high << first
                for low, high in zip(below.get(size - 1, zeros), below.get(size, zeros))]
    return level[k]


@dataclass(frozen=True)
class GramParameters:
    """Inner products of the constant and degree-1 eigenfunctions on two shells.

    The inner product is the weighted shell average <f,g> = sum_i
    (W_i/|X_{r_i}|) sum_{x in X_{r_i}} f(x) g(x).  With phi_0 = 1 and
    phi_i(x) = Q_1(distance(e_i, x)):

      d0 = <phi_i, phi_0>, c0 = <phi_i, phi_i>, c2 = <phi_i, phi_j> (i != j).
    """

    n: int
    r1: int
    r2: int
    W1: Fraction
    W2: Fraction
    d0: Fraction
    c0: Fraction
    c2: Fraction

    @property
    def weight_sum(self) -> Fraction:
        """<phi_0, phi_0> = W1 + W2."""
        return self.W1 + self.W2


def gram_shell_terms(n: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """Per-unit-weight contributions of one shell to (d0, c0, c2).

    The inner products are sums over shells, each shell contributing its
    weight times these closed forms; valid for any 1 <= r <= n-1.
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"shell index out of range: r={r}, n={n}")
    t_d0 = Fraction((n - 2) * (n - 2 * r), n)
    t_c0 = Fraction(4 * (n - 4) * r * r - 4 * n * (n - 4) * r + n * (n - 2) ** 2, n)
    t_c2 = Fraction(
        4 * (n * n - 5 * n + 8) * r * r
        - 4 * n * (n * n - 5 * n + 8) * r
        + n * (n - 1) * (n - 2) ** 2,
        n * (n - 1),
    )
    return t_d0, t_c0, t_c2


def gram_closed_form(n: int, r1: int, r2: int, W1: Fraction, W2: Fraction) -> GramParameters:
    """Closed forms for d0, c0, c2 on the shell pair (r1, r2) with shell weights W1, W2."""
    if not 1 <= r1 < r2 <= n - 1:
        raise ValueError(f"shell indices out of range: r1={r1}, r2={r2}, n={n}")
    W1, W2 = Fraction(W1), Fraction(W2)
    if W1 <= 0 or W2 <= 0:
        raise ValueError("shell weights must be positive")
    d0 = c0 = c2 = Fraction(0)
    for r, W in ((r1, W1), (r2, W2)):
        t_d0, t_c0, t_c2 = gram_shell_terms(n, r)
        d0 += W * t_d0
        c0 += W * t_c0
        c2 += W * t_c2
    return GramParameters(n, r1, r2, W1, W2, d0, c0, c2)


def gram_schmidt_closed_form(g: GramParameters) -> tuple[list[Fraction], list[Fraction]]:
    """Orthogonalize (phi_1, ..., phi_n, phi_0) using the closed forms.

    Returns (coefficients, squared norms), both of length n+1, where

      h_1     = phi_1
      h_i     = phi_i - coefficients[i-1] * (phi_1 + ... + phi_{i-1}),  2 <= i <= n
      h_{n+1} = phi_0 - coefficients[n] * (phi_1 + ... + phi_n)

    and squared norms are c0, (c0-c2)(c0+(i-1)c2)/(c0+(i-2)c2), and
    W1 + W2 - n*d0^2/(c0+(n-1)c2).
    """
    n, c0, c2, d0 = g.n, g.c0, g.c2, g.d0
    if c0 == c2:
        raise DegenerateGram("c0 = c2")
    for i in range(2, n + 2):
        if c0 + (i - 2) * c2 == 0:
            raise DegenerateGram(f"c0 + {i - 2}*c2 = 0")
    coefficients = [Fraction(0)]
    norms = [c0]
    for i in range(2, n + 1):
        den = c0 + (i - 2) * c2
        coefficients.append(c2 / den)
        norms.append((c0 - c2) * (c0 + (i - 1) * c2) / den)
    last_den = c0 + (n - 1) * c2
    coefficients.append(d0 / last_den)
    norms.append(g.weight_sum - n * d0 * d0 / last_den)
    return coefficients, norms
