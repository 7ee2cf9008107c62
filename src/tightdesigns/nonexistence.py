"""Refutation engine for infeasible parameter rows.

The pipeline derives, for a hypothetical design with a given parameter row,
the per-point incidence counts that the design conditions force and, in
closed form from those, the per-pair counts (inclusion-exclusion fixes the
avoid count, the covering identity pairs the two shells' contain counts).
It then refutes by (in order): non-integral point counts, an empty
pair-count system, a count forced to 0, the first two moments of the
shell-1 contain counts, and finally an exhaustive search for a single
shell's block configuration (on 6..200 at budget 50000 it refutes nothing
more).  A refutation from any one shell is conclusive since all constraints
are necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from array import array
from itertools import combinations, combinations_with_replacement
from typing import Optional, Union

from . import catalog, verify
# relation_profile is not called here; the benchmark's tracer counts it under this name
from .designs import WeightedDesign, relation_profile, save, shells_of  # noqa: F401
from .feasibility import ParameterRow, row_to_dict
from .hamming import binomial, incidence_fault, meet_classes, subset_members, unrank_subset

DEFAULT_BUDGET = 10**9

CAUSE_POINT_LAMBDA = "nonintegral_point_lambda"
CAUSE_EMPTY_SYSTEM = "empty_lambda_system"
CAUSE_ZERO_PAIR_DEGREE = "zero_pair_degree"
CAUSE_PAIR_DEGREE_SUM = "pair_degree_sum"
CAUSE_CSP_EXHAUSTED = "csp_exhausted"


@dataclass(frozen=True)
class PointLambdas:
    """Forced per-coordinate incidence counts lambda^(i)_1 for the two shells."""

    first: int
    second: int


@dataclass(frozen=True, order=True)
class PairLambdaSolution:
    """One admissible tuple of per-pair counts (contain_i, avoid_i per shell)."""

    contain1: int
    avoid1: int
    contain2: int
    avoid2: int


@dataclass(frozen=True)
class Verdict:
    status: str  # "refuted" | "found" | "undecided"
    cause: Optional[str] = None
    detail: str = ""
    witness: Optional[dict] = None

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def undecided(self) -> bool:
        return self.status == "undecided"


def verdict_to_dict(row: ParameterRow, verdict: Verdict) -> dict:
    obj: dict = {"row": row_to_dict(row), "verdict": verdict.status}
    if verdict.refuted:
        obj["reason"] = {"cause": verdict.cause, "trace": verdict.detail}
    elif verdict.found:
        obj["witness"] = verdict.witness
    else:
        obj["reason"] = verdict.detail
    return obj


def point_lambdas(row: ParameterRow) -> Union[PointLambdas, Verdict]:
    """The forced per-coordinate counts lambda^(i)_1 = N_i r_i / n.

    At a coordinate the covering constants lambda_1 and lambda_2 give two
    independent linear equations in the two shells' counts there (r1 != r2), so
    each count is the same at every coordinate, and double counting shell i's
    N_i r_i incidences over the n coordinates gives its value.  As 0 < r_i < n,
    it lies strictly between 0 and N_i: only integrality can fail.
    """
    first, second = Fraction(row.n1 * row.r1, row.n), Fraction(row.n2 * row.r2, row.n)
    for value, cap, shell in ((first, row.n1, 1), (second, row.n2, 2)):
        if value.denominator != 1:
            return Verdict(
                "refuted",
                CAUSE_POINT_LAMBDA,
                f"lambda^({shell})_1 = {value} is not an integer in [0, {cap}]",
            )
    return PointLambdas(int(first), int(second))


def pair_lambda_solutions(row: ParameterRow) -> tuple[PairLambdaSolution, ...]:
    """All admissible per-pair count tuples, in ascending order.

    A pair u of coordinates splits shell i's blocks into x_i that contain u,
    y_i that avoid u, and the rest; each coordinate lies in lambda^(i)_1 blocks.

    1. Inclusion-exclusion gives y_i = N_i - 2 lambda^(i)_1 + x_i, so y_i >= 0 and
       x_i + y_i <= N_i hold iff max(0, 2 lambda^(i)_1 - N_i) <= x_i <= lambda^(i)_1.
    2. Q_2(r-2) - 2 Q_2(r) + Q_2(r+2) = 16, so with y_i substituted the degree-2
       moment condition at u reads 16 (x_1 + w x_2) = 16 lambda_2: it fixes x_2.
    3. Every feasible row has 2 <= r1 < r2 <= n-2 (a shell of radius 1 or n-1 has
       alpha = 2, which forces N_i = n > n - 1), so no count is structurally zero.

    Rows whose point lambdas are not integral have no tuple.
    """
    lam = point_lambdas(row)
    if not isinstance(lam, PointLambdas):
        return ()
    low2, high2 = max(0, 2 * lam.second - row.n2), lam.second
    solutions = []
    for x1 in range(max(0, 2 * lam.first - row.n1), lam.first + 1):
        x2 = (row.lambda2 - x1) / row.w
        if x2.denominator == 1 and low2 <= x2 <= high2:
            x2 = int(x2)
            solutions.append(PairLambdaSolution(
                x1, row.n1 - 2 * lam.first + x1, x2, row.n2 - 2 * lam.second + x2))
    return tuple(solutions)


def counting_filters(row: ParameterRow, solutions) -> Verdict:
    """Double-counting rules over the forced per-pair counts.

    Every per-pair count is an affine image of contain1 (y_i = N_i -
    2 lambda^(i)_1 + x_i, x_2 = (lambda_2 - x_1)/w), so a count is forced only
    when exactly one tuple is admissible.  A forced count of 0 contradicts a
    shell whose blocks contain (or miss) pairs at all.  Then the moments of a
    pair's contain1 count x, with admissible values D from lo to hi, over all
    C(n,2) pairs, with m_1 = r_1 - alpha_1/2 the meet of two shell-1 blocks:
    1. sum x = N_1 C(r_1, 2) counts (pair, block): first, lo C(n,2) <= sum x <= hi C(n,2);
    2. sum x^2 = N_1 C(r_1, 2) + N_1 (N_1 - 1) C(m_1, 2) counts (pair, ordered block pair);
    3. (x-a)(x-b) >= 0 for consecutive a < b of D and (x-lo)(x-hi) <= 0, so by
       1 and 2 their sums sum x^2 - (a+b) sum x + ab C(n,2) have these signs too.
    Shell 2's counts are (lambda_2 - x)/w, and its two moment identities are
    the images of shell 1's (tested on 6..200): it needs no test of its own.
    """
    if not solutions:
        raise ValueError("counting_filters needs a nonempty solution set")
    n, pairs = row.n, binomial(row.n, 2)
    if len(solutions) == 1:
        (s,) = solutions
        for kind, shell, value, blocks, per_block in (
            ("contain", 1, s.contain1, row.n1, binomial(row.r1, 2)),
            ("avoid", 1, s.avoid1, row.n1, binomial(n - row.r1, 2)),
            ("contain", 2, s.contain2, row.n2, binomial(row.r2, 2)),
            ("avoid", 2, s.avoid2, row.n2, binomial(n - row.r2, 2)),
        ):
            if value == 0:
                return Verdict(
                    "refuted",
                    CAUSE_ZERO_PAIR_DEGREE,
                    f"shell {shell}: every pair is forced to {kind} count 0, but each of "
                    f"the {blocks} blocks yields {per_block} such pairs",
                )
    values = sorted({s.contain1 for s in solutions})
    low, high = values[0], values[-1]
    total = row.n1 * binomial(row.r1, 2)
    if not low * pairs <= total <= high * pairs:
        if low == high:
            trace = f"contain count forced to {low}, but {low}*C({n},2) = {low * pairs} !="
        else:
            trace = (f"contain counts lie in [{low}, {high}], so their sum over the "
                     f"C({n},2) = {pairs} pairs lies in [{low * pairs}, {high * pairs}], "
                     f"but it must be")
        return Verdict("refuted", CAUSE_PAIR_DEGREE_SUM,
                       f"shell 1: {trace} {row.n1}*{binomial(row.r1, 2)} = {total}")
    squares = total + row.n1 * (row.n1 - 1) * binomial(row.r1 - row.alpha1 // 2, 2)
    for a, b, sign in (*((a, b, 1) for a, b in zip(values, values[1:])), (low, high, -1)):
        moment = squares - (a + b) * total + a * b * pairs
        if sign * moment < 0:
            return Verdict("refuted", CAUSE_PAIR_DEGREE_SUM, (
                f"shell 1: contain counts lie in {{{', '.join(map(str, values))}}}, but over "
                f"the C({n},2) = {pairs} pairs sum (x-{a})(x-{b}) = {squares} - {a + b}*{total}"
                f" + {a * b}*{pairs} = {moment} {'<' if sign > 0 else '>'} 0"))
    return Verdict("undecided", detail="counting filters passed")


def _shell_parameters(row: ParameterRow, shell: int, solutions):
    lam = point_lambdas(row)
    if not isinstance(lam, PointLambdas):
        raise ValueError("csp_search needs integral point lambdas")
    if shell == 1:
        n_blocks, size, alpha, degree = row.n1, row.r1, row.alpha1, lam.first
        domain = {s.contain1 for s in solutions}
    elif shell == 2:
        n_blocks, size, alpha, degree = row.n2, row.r2, row.alpha2, lam.second
        domain = {s.contain2 for s in solutions}
    else:
        raise ValueError(f"shell must be 1 or 2, got {shell}")
    return n_blocks, size, size - alpha // 2, degree, sorted(domain)


def check_shell_config(row: ParameterRow, shell: int, solutions, blocks) -> bool:
    """Independent re-validation of a search witness against all constraints."""
    n_blocks, size, meet, degree, domain = _shell_parameters(row, shell, solutions)
    return len(blocks) == n_blocks and incidence_fault(
        range(1, row.n + 1), blocks, size, degree, (meet,), domain) is None


def csp_search(row: ParameterRow, shell: int, solutions, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exhaustive search for one shell's block configuration; `decide` runs
    it once per row, on the shell with fewer blocks.

    Searches for N blocks of size r on the n coordinates with all pairwise
    intersections r - alpha/2, every coordinate in exactly lambda^(i)_1
    blocks, and every coordinate pair's containment count in the projection
    of the admissible solution set.  The state space is the multiset of
    per-point incidence patterns (which blocks contain the point), which
    quotients away point relabeling; block relabeling is broken by forcing
    one point onto the first lexicographic pattern.  Exhausting the space
    refutes; exceeding the node budget, or a pattern space larger than it,
    is reported as undecided, never as a claim.
    """
    n_blocks, size, meet, degree, domain = _shell_parameters(row, shell, solutions)
    status, blocks, nodes = _pattern_search(row.n, n_blocks, size, meet, degree, domain, budget)
    where = f"shell {shell} ({n_blocks} blocks of size {size}, pairwise meets {meet})"
    if status == "refuted":
        return Verdict("refuted", CAUSE_CSP_EXHAUSTED,
                       f"{where}: exhausted after {nodes} nodes, no configuration")
    if status == "found":
        if not check_shell_config(row, shell, solutions, blocks):
            raise RuntimeError(f"{where}: search witness fails re-validation")
        return Verdict("found", detail=f"{where}: witness after {nodes} nodes",
                       witness={"kind": "shell_config", "shell": shell, "blocks": blocks})
    detail = f"{where}: node budget {budget} exhausted"
    space = binomial(n_blocks, degree)  # C(N, degree) = C(N, N - degree) under complement
    if space > budget:
        detail += f" before the first node: {space} patterns"
    return Verdict("undecided", detail=detail)


def _pattern_search(n, n_blocks, size, meet, degree, domain, budget):
    """Core search over multisets of incidence patterns.

    A configuration is equivalent to a multiset of n patterns (each a
    degree-subset of the block indices) where any two member patterns
    intersect in a value from `domain` (a point pair's containment count is
    exactly that intersection).  The cover items are the block pairs a <= b
    (the pairs a < b, then each block as (a, a)), and item (a, b) must lie in
    exactly |B_a & B_b| of the n patterns, B_a being block a's points: `meet`
    off the diagonal, `size` on it.  Compatibility rows come from the
    patterns through each block by the meet recurrence (see `compat`).  Pattern
    j is the j-th degree-subset in the order of `combinations`, unranked, and
    its compatibility row and cover array are made when first read.

    Counting incidences gives meet (N-1) = size (degree-1), and the block
    complement keeps it, so the pairs through a block always hold degree-1
    times that block's capacity.  Hence every item is full exactly when all
    n points are placed, and until then some pair a < b is open (a block
    when degree = 1, where meet = 0): the first open item is the target.
    """
    # blocks over half the ground set: complement them, a bijection on configurations
    complemented = 2 * size > n
    if complemented:
        domain = {n_blocks - 2 * degree + t for t in domain}
        size, meet, degree = n - size, n - 2 * size + meet, n_blocks - degree
    if (degree * n != n_blocks * size or meet * (n_blocks - 1) != size * (degree - 1)
            or meet < 0 or not 0 <= degree <= n_blocks):
        raise RuntimeError(f"inconsistent shell problem: {n_blocks} blocks of size {size} "
                           f"on {n} points, degree {degree}, pairwise meets {meet}")
    # degree = n_blocks * size / n >= 1: feasible rows have 2 <= size <= n-2
    count = binomial(n_blocks, degree)
    if count > budget:
        # the budget bounds setup too: no bitset over more patterns than it allows nodes
        return "undecided", None, 0

    # the patterns through each block as a bitset, bit j standing for pattern j
    block_patterns = subset_members(n_blocks, degree)

    @lru_cache(maxsize=None)
    def compat(a):
        """Patterns meeting pattern a in a domain value (a meets itself in
        degree), split by their meet with a's blocks once per pattern."""
        exactly = meet_classes(block_patterns, unrank_subset(n_blocks, degree, a),
                               (1 << count) - 1)
        # the exactly[i] are disjoint, so their sum is their union
        return sum(x for i, x in enumerate(exactly) if i in domain)

    items = list(combinations(range(n_blocks), 2)) + [(a, a) for a in range(n_blocks)]
    index = {item: t for t, item in enumerate(items)}

    @lru_cache(maxsize=None)
    def cover(j):
        """The items pattern j covers, made on first read."""
        pairs = combinations_with_replacement(unrank_subset(n_blocks, degree, j), 2)
        return array("I", map(index.__getitem__, pairs))

    item_patterns = [block_patterns[a] & block_patterns[b] for a, b in items]
    cap = [size if a == b else meet for a, b in items]
    state = _Search(cap, cover, item_patterns, compat, budget)
    try:
        # symmetry break: some point may be relabeled onto the first pattern; it
        # fits, as its blocks start at size >= 1 and its pairs (degree >= 2) at meet >= 1
        state.place(0, 1)
        result = state.search(n - 1, compat(0))
    except _Budget:
        return "undecided", None, state.nodes
    if result is None:
        return "refuted", None, state.nodes
    blocks = [[] for _ in range(n_blocks)]
    point = 1
    for j in sorted(result):
        for _ in range(result[j]):
            for i in unrank_subset(n_blocks, degree, j):
                blocks[i].append(point)
            point += 1
    if complemented:  # undo the transform on the emitted witness
        blocks = [[p for p in range(1, n + 1) if p not in set(b)] for b in blocks]
    return "found", blocks, state.nodes


class _Budget(Exception):
    pass


class _Search:
    """The state of one pattern search, with its recursion as methods: closures
    that call each other form a reference cycle, which would keep each search's
    cover arrays alive until the next garbage collection.  So the caches of
    compatibility rows and cover arrays live in `compat` and `cover`, which
    never refer to the search or to themselves.

    `full` is the union of item_patterns[t] over the items t with no room
    left (cap[t] = 0): a full candidate fits no copy, so `fill` counts a run
    of them as nodes in one step instead of visiting each."""

    __slots__ = ("cap", "cover", "item_patterns", "compat", "budget", "chosen", "nodes", "full")

    def __init__(self, cap, cover, item_patterns, compat, budget):
        self.cap, self.cover, self.item_patterns = cap, cover, item_patterns
        self.compat, self.budget = compat, budget
        self.chosen: dict[int, int] = {}
        self.nodes = self.full = 0

    def tick(self, k=1):
        self.nodes += k
        if self.nodes > self.budget:
            self.nodes = self.budget + 1  # the count at which a node-by-node walk stops
            raise _Budget

    def place(self, j, m):
        cap, item_patterns = self.cap, self.item_patterns
        for t in self.cover(j):
            cap[t] -= m
            if not cap[t]:
                self.full |= item_patterns[t]
        chosen = self.chosen
        chosen[j] = chosen.get(j, 0) + m
        if not chosen[j]:
            del chosen[j]

    def search(self, remaining, usable):
        need = 0
        item_patterns = self.item_patterns
        for t, c in enumerate(self.cap):
            if c:
                cands = usable & item_patterns[t]
                if c > remaining or not cands:
                    return None
                if not need:
                    need, target = c, cands
        if not need:  # every item is full: all n points are placed
            return dict(self.chosen)
        return self.fill(target, need, remaining, usable)

    def fill(self, cands, need, remaining, usable):
        if need == 0:
            return self.search(remaining, usable)
        cap, compat, full = self.cap, self.compat, self.full
        # need, remaining >= 1 here, so a full candidate is one node and no copy;
        # candidates are consumed in index order, the full ones below j counted at once
        free = cands & ~full
        while free:
            low = free & -free
            free ^= low
            self.tick((cands & (low - 1)).bit_count())
            cands &= -low << 1  # the candidates above j
            j = low.bit_length() - 1
            top = min(need, remaining, min(map(cap.__getitem__, self.cover(j))))
            for m in range(1, top + 1):
                self.tick()
                self.place(j, m)
                allowed = compat(j)
                result = self.fill(cands & allowed, need - m, remaining - m, usable & allowed)
                self.place(j, -m)
                self.full = full
                if result is not None:
                    return result
            self.tick()
        self.tick(cands.bit_count())
        return None


# ---------------------------------------------------------------------------
# registry of constructed designs and the decision pipeline


@lru_cache(maxsize=1)
def construction_registry() -> dict:
    """catalog.registry(), made once per process; nothing is built until a build is called."""
    return catalog.registry()


def verify_constructed(row: ParameterRow, design: WeightedDesign) -> None:
    """Full verification of a constructed design on row.key at first-shell weight 1.

    With balance, weight constancy and coherence these force lambda1 and lambda2 by double
    counting, and alpha1, alpha2 and gamma by the pair counts of the forced point lambdas.
    """
    failed = [result.name for result in verify.full_check(design) if not result.ok]
    if failed:
        raise RuntimeError(f"registry design for {row} fails the {', '.join(failed)} checks")
    if catalog.row_key(design) != row.key or shells_of(design).shells[0][2] != 1:
        raise RuntimeError(f"registry design for {row} is not on that row at first-shell weight 1")


def decide(row: ParameterRow, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Classify one parameter row.

    The construction registry is consulted first; a hit is fully verified
    and returned as a found design.  Otherwise the pipeline runs point
    lambdas, the pair lambda system (empty means refuted), the counting
    filters, and the configuration search on the shell with fewer blocks
    (shell 1 on a tie), whose verdict it returns as it is.
    """
    entry = construction_registry().get(row.key)
    if entry is not None:
        label, build = entry
        design = build()
        verify_constructed(row, design)
        witness = {
            "kind": "design",
            "source": label,
            "design": save(design).decode("utf-8"),
        }
        return Verdict("found", detail=f"constructed by {label}", witness=witness)
    lam = point_lambdas(row)
    if isinstance(lam, Verdict):
        return lam
    solutions = pair_lambda_solutions(row)
    if not solutions:
        return Verdict("refuted", CAUSE_EMPTY_SYSTEM,
                       "the pair-count system has no admissible integer solution")
    filtered = counting_filters(row, solutions)
    if filtered.refuted:
        return filtered
    return csp_search(row, 1 if row.n1 <= row.n2 else 2, solutions, budget)
