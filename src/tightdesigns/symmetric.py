"""Symmetric 2-(v, k, lam) designs for lam = 2 and 3, generated by search.

Fix a base point.  The k blocks through it meet pairwise in lam - 1 further
points and every other point lies in lam of them, so each of the other v - 1
points, read as the set of blocks through the base point that contain it, is
a block of a 2-(k, lam, lam - 1) design: the structure at the base point is
that design's dual.  `symmetric_design` fixes the design, lists the k-sets
that meet every block through the base point in lam points, and completes
with v - k of them that meet pairwise in lam points.  Every choice is made in
a fixed order, so the result depends on (v, k, lam) alone.  The registry in
`catalog` imports this module only when it first builds such a design.
"""

from __future__ import annotations

from itertools import combinations

from .constructions import SymmetricDesign


def symmetric_design(v: int, k: int, lam: int) -> SymmetricDesign:
    """A symmetric 2-(v, k, lam) design on points 0..v-1 with base point 0.

    The derived 2-(k, lam, lam - 1) design is every pair of the k blocks
    through point 0 for lam = 2, and the first 1-rotational 2-(k, 3, 2)
    design for lam = 3.  Point q + 1 is the q-th derived block.  Raises
    ValueError for other lam, and when the derived design or the completion
    does not exist.
    """
    if lam * (v - 1) != k * (k - 1):
        raise ValueError(f"lam(v-1) != k(k-1) for 2-({v},{k},{lam})")
    if lam == 2:
        derived = list(combinations(range(k), 2))
    elif lam == 3:
        derived = rotational_triples(k)
    else:
        raise ValueError(f"the generator builds lam = 2 or 3, not 2-({v},{k},{lam})")
    # column j: the points (bit q for point q + 1) on the j-th block through point 0
    columns = [sum(1 << q for q, block in enumerate(derived) if j in block) for j in range(k)]
    candidates = sorted(_candidates(derived, columns, [lam] * k, (1 << (v - 1)) - 1))
    chosen = _complete(candidates, [k - lam] * (v - 1), lam, v - k)
    if chosen is None:
        raise ValueError(f"no symmetric 2-({v},{k},{lam}) design extends the derived design")
    blocks = [column << 1 | 1 for column in columns] + [mask << 1 for mask in chosen]
    return SymmetricDesign(v, k, lam, tuple(
        frozenset(x for x in range(v) if mask >> x & 1) for mask in blocks))


def rotational_triples(k: int) -> list[tuple[int, ...]]:
    """The blocks of the first 1-rotational 2-(k, 3, 2) design, m = k - 1.

    Points 0..m-1 are Z_m, developed by translation; point m is fixed.
    Orbits are tried in the order of their least triple, each at most once,
    so the design is the one whose sorted list of base triples is least.
    """
    m = k - 1
    orbits: dict = {}
    for triple in combinations(range(k), 3):
        orbit = frozenset(tuple(sorted(x if x == m else (x + s) % m for x in triple))
                          for s in range(m))
        orbits[min(orbit)] = orbit
    order = [sorted(orbits[base]) for base in sorted(orbits)]
    blocks = _first_cover(order, dict.fromkeys(combinations(range(k), 2), 2), 0)
    if blocks is None:
        raise ValueError(f"no 1-rotational 2-({k},3,2) design")
    return sorted(blocks)


# The searches below are plain recursive functions, not closures: a closure
# that calls itself is a reference cycle, which would keep its lists alive
# until the next garbage collection.


def _first_cover(orbits, need, start):
    """The blocks of the first orbits from `start` on that cover each pair
    `need[pair]` times, or None."""
    if not any(need.values()):
        return []
    for i in range(start, len(orbits)):
        pairs = [pair for block in orbits[i] for pair in combinations(block, 2)]
        for pair in pairs:
            need[pair] -= 1
        rest = _first_cover(orbits, need, i + 1) if min(need[p] for p in pairs) >= 0 else None
        for pair in pairs:
            need[pair] += 1
        if rest is not None:
            return orbits[i] + rest
    return None


def _candidates(derived, columns, need, free, chosen=0):
    """Every set of points, as a bit mask, that meets column j in need[j]
    more points, drawn from the points in `free`.

    An exact cover with multiplicities: branch on the open column with the
    fewest free points left, over the ways to fill it from them.
    """
    open_columns = [j for j, left in enumerate(need) if left]
    if not open_columns:
        yield chosen
        return
    j = min(open_columns, key=lambda j: (free & columns[j]).bit_count())
    mask = free & columns[j]
    points = [q for q in range(len(derived)) if mask >> q & 1]
    for picked in combinations(points, need[j]):
        rest = list(need)
        for q in picked:
            for i in derived[q]:
                rest[i] -= 1
        if min(rest) < 0:
            continue
        still_free = free
        for i, left in enumerate(rest):
            if not left:
                still_free &= ~columns[i]
        yield from _candidates(derived, columns, rest, still_free,
                               chosen | sum(1 << q for q in picked))


def _complete(pool, need, lam, blocks_left):
    """`blocks_left` masks from `pool` that meet pairwise in lam points and of
    which exactly need[q] contain point q, or None.

    Branch on the point with the fewest candidates left; the pool is
    filtered along the path.  The branch that takes a point's i-th candidate
    drops its earlier ones, so no set of blocks is reached twice.
    """
    if not blocks_left:
        return []
    holders = None
    for q, left in enumerate(need):
        if left:
            mine = [mask for mask in pool if mask >> q & 1]
            if len(mine) < left:
                return None
            if holders is None or len(mine) < len(holders):
                holders = mine
    for i, block in enumerate(holders):
        rest_need = [left - (block >> q & 1) for q, left in enumerate(need)]
        full = sum(1 << q for q, left in enumerate(rest_need) if not left)
        tried = set(holders[:i])
        rest = [mask for mask in pool if (mask & block).bit_count() == lam
                and not mask & full and mask not in tried]
        found = _complete(rest, rest_need, lam, blocks_left - 1)
        if found is not None:
            return [block] + found
    return None
