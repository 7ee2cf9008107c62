"""Symmetric 2-(v, k, lam) designs for lam = 2 and 3, generated by search.

Fix a base point.  The k blocks through it meet pairwise in lam - 1 further
points and every other point lies in lam of them, so each of the other v - 1
points, read as the set of blocks through the base point that contain it, is
a block of a 2-(k, lam, lam - 1) design: the structure at the base point is
that design's dual.  `symmetric_design` fixes the design, lists the k-sets
that meet every block through the base point in lam points, and completes
with v - k of them that meet pairwise in lam points, both by one exact cover
over bitsets (`_covers`).  The cover walk counts down one list of open
counts in place, and computes a mask's support and meet row once, when it
first takes that mask.  Every choice is made in a fixed order, so the result
depends on (v, k, lam) alone.  The registry in `catalog` imports this module
only when it first builds such a design.

The derived design is 1-rotational: translation by 1 in Z_m, m = k - 1, with
point m fixed, permutes its blocks, so it permutes the k-sets listed.  Each
of them holds exactly lam blocks through m, since point m must be held lam
times and each such block holds it once.  So the listing walks from one
lam-set of the blocks through m per translation orbit and translates what
it finds (`_candidates`), which gives the same sorted list as one walk over
everything.
"""

from __future__ import annotations

from itertools import combinations

from .constructions import SymmetricDesign
from .hamming import holders, meet_classes


def symmetric_design(v: int, k: int, lam: int) -> SymmetricDesign:
    """A symmetric 2-(v, k, lam) design on points 0..v-1 with base point 0.

    The derived 2-(k, lam, lam - 1) design is `rotational_blocks(k, lam)`,
    which for lam = 2 is every pair of the k blocks through point 0.  Point
    q + 1 is the q-th derived block.  Translation in Z_{k-1}, point k - 1
    fixed, permutes the derived blocks and so the candidate blocks, and each
    candidate holds exactly lam derived blocks through point k - 1 (that point
    is held lam times, once by each such block): the candidates are listed
    from one lam-set of those per orbit.  Raises ValueError for lam other than
    2 and 3, and when the derived design or the completion does not exist.
    """
    if lam * (v - 1) != k * (k - 1):
        raise ValueError(f"lam(v-1) != k(k-1) for 2-({v},{k},{lam})")
    if lam not in (2, 3):
        raise ValueError(f"the generator builds lam = 2 or 3, not 2-({v},{k},{lam})")
    derived = rotational_blocks(k, lam)
    # row q: the blocks through point 0 (bit j for the j-th) that hold point q + 1
    rows = [sum(1 << j for j in block) for block in derived]
    columns = holders(rows, k)
    candidates = _candidates(derived, rows, columns, lam)
    chosen = next(_covers(candidates, holders(candidates, v - 1), [k - lam] * (v - 1),
                          (1 << len(candidates)) - 1, lam), None)
    if chosen is None:
        raise ValueError(f"no symmetric 2-({v},{k},{lam}) design extends the derived design")
    blocks = [column << 1 | 1 for column in columns] + [candidates[j] << 1 for j in chosen]
    return SymmetricDesign(v, k, lam, tuple(
        frozenset(x for x in range(v) if mask >> x & 1) for mask in blocks))


def rotational_blocks(k: int, size: int) -> list[tuple[int, ...]]:
    """The blocks of the first 1-rotational 2-(k, size, size - 1) design, m = k - 1.

    Points 0..m-1 are Z_m, developed by translation; point m is fixed.
    Orbits are tried in the order of their least block, each at most once,
    so the design is the one whose sorted list of base blocks is least.
    The pair orbits are disjoint, so size 2 gives every pair.
    """
    m = k - 1
    orbits: dict = {}
    for block in combinations(range(k), size):
        orbit = frozenset(_translate(block, s, m) for s in range(m))
        orbits[min(orbit)] = orbit
    order = [sorted(orbits[base]) for base in sorted(orbits)]
    blocks = _first_cover(order, dict.fromkeys(combinations(range(k), 2), size - 1), 0)
    if blocks is None:
        raise ValueError(f"no 1-rotational 2-({k},{size},{size - 1}) design")
    return sorted(blocks)


def _translate(block, s, m):
    """The block moved by s in Z_m, the fixed point m kept, as a sorted tuple."""
    return tuple(sorted(x if x == m else (x + s) % m for x in block))


def _candidates(derived, rows, columns, lam):
    """The sorted masks (bit q for the q-th derived block) of the sets of
    derived blocks that hold each point lam times, listed by orbit (see the
    module docstring): the walk starts from the least lam-set of each orbit
    of the blocks through the fixed point m, with point m full and those
    blocks dropped, and each cover it finds is translated by every shift
    into one set of ints."""
    m = len(columns) - 1
    index = {block: q for q, block in enumerate(derived)}
    moves = [[index[_translate(block, s, m)] for block in derived] for s in range(m)]
    live = ((1 << len(rows)) - 1) & ~columns[m]
    seen, found = {}, set()
    for start in combinations([q for q in range(len(rows)) if columns[m] >> q & 1], lam):
        if min(tuple(sorted(move[q] for q in start)) for move in moves) != start:
            continue
        need = [lam] * len(columns)
        for q in start:
            for x in derived[q]:
                need[x] -= 1
        for cover in _walk(rows, columns, need, live, None, seen, start):
            found.update(sum(1 << move[q] for q in cover) for move in moves)
    return sorted(found)


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


def _covers(masks, holders, need, live, meet=None):
    """Each set of masks from `live`, a bitset of their indices, holding bit b
    need[b] times and, given `meet`, meeting pairwise in `meet` bits, as its
    indices in the order chosen; holders[b] is the bitset of the masks on b.

    Branch on the open bit with the fewest live masks, over them in index
    order.  A branch drops the masks tried before it (no cover is reached
    twice), those on the bits it fills and, given `meet`, those that do not
    meet it in `meet` bits.  One copy of `need` is counted down in place and
    restored on return; a mask's support and, given `meet`, its meet row (the
    masks meeting it in `meet` bits, by the meet recurrence over all of them)
    are computed when the walk first takes it and kept for the walk.  The
    tests check the covers against a subset enumeration, and their order
    against a walk that copies its counts at every node."""
    return _walk(masks, holders, list(need), live, meet, {})


def _walk(masks, holders, need, live, meet, seen, chosen=()):
    """The covers of `_covers` that extend `chosen`, `need` being what is left
    to hold; seen[j] is mask j's (support, meet row) once the walk took it."""
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
        if j not in seen:
            support = tuple(b for b in range(len(need)) if masks[j] >> b & 1)
            everything = (1 << len(masks)) - 1
            # an empty slice when the mask has fewer than `meet` bits
            row = everything if meet is None else sum(
                meet_classes(holders, support, everything)[meet:meet + 1])
            seen[j] = support, row
        support, row = seen[j]
        full = 0
        for b in support:
            need[b] -= 1
            if not need[b]:
                full |= holders[b]
        yield from _walk(masks, holders, need, live & ~full & row, meet, seen, chosen + (j,))
        for b in support:
            need[b] += 1
