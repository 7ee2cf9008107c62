"""Exact primitives of the binary Hamming scheme H(n,2).

Everything here is integer arithmetic: binomial coefficients, Krawtchouk
polynomials, shell intersection counts, bitsets transposed, words split by
their meet with a support, the incidence check of a block system, and
k-subsets by rank and by member.  The moment and frame checks of `verify`
count their design sums with the meet classes and their shell averages with
the shell intersections.  No floating point; intermediate integers routinely
exceed 64 bits (C(30,15)^2 scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


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

    def distance(self, other: "BinaryWord") -> int:
        if self.n != other.n:
            raise ValueError("words of different length")
        return (self.bits ^ other.bits).bit_count()

    def complement(self) -> "BinaryWord":
        return BinaryWord(self.n, self.bits ^ ((1 << self.n) - 1))


def shell_intersection(n: int, j: int, r: int, nu: int) -> int:
    """|X_r intersect Gamma_nu(u)| for any word u of weight j.

    Nonzero only when nu = j + r - 2i for an integer i (the overlap of the
    two supports); the count is then C(j, i) * C(n-j, r-i).  Two users: the
    shell averages of the moment and frame checks (verify) and selftest.
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


def holders(masks, width: int) -> list[int]:
    """Entry b: the bitset of the masks on bit b, bit j standing for masks[j],
    so the transpose of `masks` over bits 0..width-1; `meet_classes` reads it
    as its `members`.  Three users: the symmetric-design generator, the
    verifier's meet table (verify) and `incidence_fault`."""
    return [sum(1 << j for j, mask in enumerate(masks) if mask >> b & 1) for b in range(width)]


def meet_classes(members, support, everything: int) -> list[int]:
    """Entry i: the words of `everything` meeting `support` in i coordinates,
    members[x] being the bitset of the words on coordinate x.  The meet
    recurrence moves the words on each coordinate of `support` up one class.
    Three users: the search's compatibility rows (nonexistence), the exact cover
    of the symmetric-design generator (symmetric), and the weighted sums of the
    moment, balance and frame checks (verify).  The tests check it against a
    popcount scan."""
    exactly = [everything]
    for x in support:
        bits = members[x]
        exactly = [low ^ (low ^ high) & bits for low, high in zip(exactly + [0], [0] + exactly)]
    return exactly


def incidence_fault(ground: range, blocks, size: int, degree: int, meets, pairs) -> str | None:
    """The first condition the blocks break, or None: each block is a
    `size`-subset of `ground`, every point lies in `degree` blocks, any two
    points lie together in a number of blocks in `pairs`, and any two blocks
    meet in a number of points in `meets`.  Each block is kept as a bitset of
    its points and each point as a bitset of its blocks, so every count is a
    popcount.  Two users: symmetric designs (constructions) and the search's
    witnesses (nonexistence).  The tests check it against per-pair block scans."""
    rows = []
    for block in blocks:
        bits = 0
        for x in block:
            if x not in ground:
                return f"point {x} outside {ground.start}..{ground.stop - 1}"
            bits |= 1 << (x - ground.start)
        if bits.bit_count() != size:
            return f"blocks must be {size}-subsets of {ground.start}..{ground.stop - 1}"
        rows.append(bits)
    columns = holders(rows, len(ground))
    if any(column.bit_count() != degree for column in columns):
        return f"every point must lie in exactly {degree} blocks"
    for (x, a), (y, b) in combinations(enumerate(columns, ground.start), 2):
        if (a & b).bit_count() not in pairs:
            return f"pair ({x},{y}) lies in {(a & b).bit_count()} blocks"
    for a, b in combinations(rows, 2):
        if (a & b).bit_count() not in meets:
            return f"two blocks meet in {(a & b).bit_count()} points"
    return None


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
