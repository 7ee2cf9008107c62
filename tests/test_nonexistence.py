import gc
import hashlib
import json
import sys
import types
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from oracles import (
    compatibility_rows_scan,
    make_design,
    moment_counts_exhaustive,
    pair_lambda_solutions_moment,
    point_lambdas_two_equation,
)
from reference_table import REFERENCE_ROWS
from tightdesigns import catalog, constructions, nonexistence
from tightdesigns.designs import WeightedDesign, complement, save, scale_weights, shells_of
from tightdesigns.feasibility import enumerate_rows
from tightdesigns.hamming import binomial, unrank_subset
from tightdesigns.nonexistence import (
    CAUSE_CSP_EXHAUSTED,
    CAUSE_PAIR_DEGREE_SUM,
    CAUSE_POINT_LAMBDA,
    CAUSE_ZERO_PAIR_DEGREE,
    DEFAULT_BUDGET,
    PairLambdaSolution,
    PointLambdas,
    Verdict,
    check_shell_config,
    construction_registry,
    counting_filters,
    csp_search,
    decide,
    pair_lambda_solutions,
    point_lambdas,
    verdict_to_dict,
)

ALL_ROWS = {(r.n, i): r for n in range(6, 31)
            for i, r in enumerate(enumerate_rows(n, n), start=1)}


def row(n, index):
    return ALL_ROWS[(n, index)]


def test_point_lambdas_values():
    assert point_lambdas(row(12, 5)) == PointLambdas(2, 6)
    assert point_lambdas(row(6, 1)) == PointLambdas(1, 2)


def test_point_lambdas_rejects_27():
    verdict = point_lambdas(row(27, 1))
    assert isinstance(verdict, Verdict) and verdict.refuted
    assert verdict.cause == CAUSE_POINT_LAMBDA
    assert "7/3" in verdict.detail


def test_point_lambdas_double_count_identity():
    # the double count N_i r_i / n equals the two-equation solve from the
    # covering constants on every row of 6..200, integral or not
    rows = enumerate_rows(6, 200)
    assert len(rows) == 2746
    for r in rows:
        first, second = point_lambdas_two_equation(r)
        result = point_lambdas(r)
        if first.denominator == second.denominator == 1:
            assert result == PointLambdas(int(first), int(second))
        else:
            shell, value, cap = (1, first, r.n1) if first.denominator != 1 else (2, second, r.n2)
            assert result == Verdict("refuted", CAUSE_POINT_LAMBDA,
                                     f"lambda^({shell})_1 = {value} is not an integer "
                                     f"in [0, {cap}]"), r.key


def test_pair_solutions_unique_for_10_1():
    assert pair_lambda_solutions(row(10, 1)) == (PairLambdaSolution(1, 4, 0, 0),)


def test_pair_solutions_unique_for_10_4():
    # (0, 6, 4, 0) also solves the moment equation, but inclusion-exclusion
    # forces avoid1 = N1 - 2 lambda^(1)_1 + contain1 = 6 - 6 + 0 = 0
    assert pair_lambda_solutions(row(10, 4)) == (PairLambdaSolution(0, 0, 4, 1),)


def test_pair_solutions_projection_20_7():
    # avoid1 = N1 - 2 lambda^(1)_1 + contain1 = contain1 - 1 excludes contain1 = 0
    sols = pair_lambda_solutions(row(20, 7))
    assert sorted({s.contain1 for s in sols}) == [3]


def test_pair_solutions_satisfy_weighted_sum():
    for r in ALL_ROWS.values():
        lam = point_lambdas(r)
        for s in pair_lambda_solutions(r):
            assert s.contain1 + r.w * s.contain2 == r.lambda2
            assert 0 <= s.contain1 + s.avoid1 <= r.n1
            assert 0 <= s.contain2 + s.avoid2 <= r.n2
            assert s.avoid1 == r.n1 - 2 * lam.first + s.contain1
            assert s.avoid2 == r.n2 - 2 * lam.second + s.contain2


def test_pair_solutions_match_moment_oracle():
    # the closed form is the moment equation's solution set cut down by
    # inclusion-exclusion, on every row of 6..60 with integral point lambdas
    checked = 0
    for r in enumerate_rows(6, 60):
        lam = point_lambdas(r)
        if not isinstance(lam, PointLambdas):
            assert pair_lambda_solutions(r) == ()
            continue
        checked += 1
        expected = tuple(
            s for s in pair_lambda_solutions_moment(r)
            if s.avoid1 == r.n1 - 2 * lam.first + s.contain1
            and s.avoid2 == r.n2 - 2 * lam.second + s.contain2
        )
        assert pair_lambda_solutions(r) == expected, (r.n, r.r1, r.r2, r.n1)
    assert checked == 332


def test_counting_filters_refutes_10_1():
    r = row(10, 1)
    verdict = counting_filters(r, pair_lambda_solutions(r))
    assert verdict.refuted and verdict.cause == CAUSE_ZERO_PAIR_DEGREE
    assert "shell 2" in verdict.detail


def test_counting_filters_refutes_18_4():
    r = row(18, 4)
    verdict = counting_filters(r, pair_lambda_solutions(r))
    assert verdict.refuted
    assert "shell 1" in verdict.detail


# the rows of 6..30 that `decide` reports found on a single-shell witness
WITNESS_ROWS = ((21, 3), (21, 4), (21, 7), (21, 11), (28, 1), (28, 2), (28, 4), (28, 6))


def test_counting_filters_pass_existing_design_rows():
    # a necessary condition must never refute a row whose shell is realizable
    by_key = {r.key: r for r in ALL_ROWS.values()}
    targets = [by_key[key] for key in construction_registry()]
    targets += [row(n, index) for n, index in WITNESS_ROWS]
    assert len(targets) == 52
    for r in targets:
        assert counting_filters(r, pair_lambda_solutions(r)).undecided, r.key


def test_pair_counts_are_forced_only_by_a_lone_tuple():
    # every per-pair count is an affine image of contain1, and with one tuple
    # the shell-2 pair sum holds exactly when the shell-1 sum does
    lone = 0
    for r in enumerate_rows(6, 200):
        solutions = pair_lambda_solutions(r)
        if len(solutions) >= 2:
            for count in ("contain1", "avoid1", "contain2", "avoid2"):
                assert len({getattr(s, count) for s in solutions}) >= 2, (r.key, count)
        elif solutions:
            (s,) = solutions
            pairs = binomial(r.n, 2)
            assert ((s.contain1 * pairs == r.n1 * binomial(r.r1, 2))
                    == (s.contain2 * pairs == r.n2 * binomial(r.r2, 2))), r.key
            lone += 1
    assert lone > 0


def test_pair_sum_range_refutes_rows_the_search_reached():
    # without the range of contain1, the search exhausts the 35 rows after 220
    # nodes and leaves the 60 rows undecided at budget 50000
    for n, index in ((35, 1), (35, 2), (35, 6), (35, 8), (60, 1), (60, 2), (60, 13), (60, 16)):
        verdict = decide(enumerate_rows(n, n)[index - 1], budget=50_000)
        assert verdict.refuted and verdict.cause == CAUSE_PAIR_DEGREE_SUM, (n, index)
    assert decide(enumerate_rows(35, 35)[0]).detail == (
        "shell 1: contain counts lie in [1, 3], so their sum over the C(35,2) = 595 pairs "
        "lies in [595, 1785], but it must be 15*21 = 315")
    # a lone tuple keeps the equality form
    assert decide(enumerate_rows(56, 56)[10]).detail == (
        "shell 1: contain count forced to 2, but 2*C(56,2) = 3080 != 8*91 = 728")


def pair_count_moments(r, shell):
    """(sum x, sum x^2) of shell i's contain counts over the C(n,2) pairs:
    (pair, block) and (pair, ordered block pair) incidences."""
    blocks, size, alpha = (r.n1, r.r1, r.alpha1) if shell == 1 else (r.n2, r.r2, r.alpha2)
    first = blocks * binomial(size, 2)
    return first, first + blocks * (blocks - 1) * binomial(size - alpha // 2, 2)


def test_moment_rule_is_the_integer_moment_problem():
    # on every row of 6..200 with at most 4 admissible contain1 values, the
    # filters refute exactly when no nonnegative integer counts c_v (the pairs
    # with contain1 = v) give the pair total and both moments
    checked = past_first = 0
    for r in enumerate_rows(6, 200):
        solutions = pair_lambda_solutions(r)
        values = sorted({s.contain1 for s in solutions})
        if not 1 <= len(values) <= 4:
            continue
        pairs, (first, second) = binomial(r.n, 2), pair_count_moments(r, 1)
        counts = moment_counts_exhaustive(values, pairs, first, second)
        assert counting_filters(r, solutions).refuted == (counts is None), r.key
        checked += 1
        past_first += values[0] * pairs <= first <= values[-1] * pairs
    assert (checked, past_first) == (1944, 672)


def test_shell_2_moments_are_the_image_of_shell_1s():
    # shell 2's contain count is (lambda_2 - x)/w for shell 1's x, so testing
    # shell 1 suffices when shell 2's two moment identities are the images of
    # shell 1's: checked on every row of 6..200 with integral point counts
    checked = 0
    for r in enumerate_rows(6, 200):
        if not isinstance(point_lambdas(r), PointLambdas):
            continue
        pairs, (first, second) = binomial(r.n, 2), pair_count_moments(r, 1)
        image = ((r.lambda2 * pairs - first) / r.w,
                 (r.lambda2 ** 2 * pairs - 2 * r.lambda2 * first + second) / r.w ** 2)
        assert image == pair_count_moments(r, 2), r.key
        checked += 1
    assert checked == 2604


def test_moment_rule_refutes_what_the_search_exhausted():
    # 28(3) and 28(5) were refuted by an exhausted search, 58(3) and 58(6)
    # left undecided at budget 50000
    assert decide(row(28, 3)).detail == (
        "shell 1: contain counts lie in {0, 3}, but over the C(28,2) = 378 pairs "
        "sum (x-0)(x-3) = 1008 - 3*588 + 0*378 = -756 < 0")
    assert decide(enumerate_rows(58, 58)[2], budget=50_000).detail == (
        "shell 1: contain counts lie in {0, 4, 8}, but over the C(58,2) = 1653 pairs "
        "sum (x-0)(x-4) = 8352 - 4*3480 + 0*1653 = -5568 < 0")
    for n, indices in ((28, (5,)), (40, (1, 2, 6, 8)), (44, (3, 5)), (45, (3, 4, 6, 7)),
                       (55, (7, 8, 15, 16)), (58, (6,))):
        rows = enumerate_rows(n, n)
        for index in indices:
            verdict = decide(rows[index - 1], budget=50_000)
            assert verdict.refuted and verdict.cause == CAUSE_PAIR_DEGREE_SUM, (n, index)


def test_counting_filters_needs_solutions():
    with pytest.raises(ValueError):
        counting_filters(row(6, 1), ())


def test_csp_refutes_20_7_shell_1():
    r = row(20, 7)
    verdict = csp_search(r, 1, pair_lambda_solutions(r))
    assert verdict.refuted and verdict.cause == CAUSE_CSP_EXHAUSTED


def test_csp_refutes_28_3_shell_2():
    r = row(28, 3)
    verdict = csp_search(r, 2, pair_lambda_solutions(r))
    assert verdict.refuted


def test_csp_finds_disjoint_pairs_for_6_1():
    r = row(6, 1)
    verdict = csp_search(r, 1, pair_lambda_solutions(r))
    assert verdict.found
    assert verdict.witness["blocks"] == [[1, 2], [3, 4], [5, 6]]


def test_csp_witnesses_revalidate():
    for n, index, shell in ((6, 1, 1), (14, 2, 1), (28, 4, 2), (30, 23, 2)):
        r = row(n, index)
        sols = pair_lambda_solutions(r)
        verdict = csp_search(r, shell, sols)
        assert verdict.found
        assert check_shell_config(r, shell, sols, verdict.witness["blocks"])
        broken = [list(b) for b in verdict.witness["blocks"]]
        broken[0] = broken[0][:-1]  # block-size violation
        assert not check_shell_config(r, shell, sols, broken)


def test_csp_budget_exhaustion_is_undecided():
    r = row(18, 2)
    solutions = pair_lambda_solutions(r)
    # a pattern space larger than the budget stops the search before its first node
    verdict = csp_search(r, 1, solutions, budget=50)
    assert verdict.undecided
    assert verdict.detail == ("shell 1 (9 blocks of size 8, pairwise meets 3): node budget 50 "
                              "exhausted before the first node: 126 patterns")
    # 126 patterns fit a budget of 300, which then runs out in mid-search
    verdict = csp_search(r, 2, solutions, budget=300)
    assert verdict.undecided
    assert verdict.detail == ("shell 2 (10 blocks of size 9, pairwise meets 4): node budget 300 "
                              "exhausted")


class _SetUp(Exception):
    """Raised in place of a search, once its set-up is captured."""


def test_compatibility_rows_and_block_bitsets_match_the_scan(monkeypatch):
    # every shell problem of 6..40 past the lone-tuple and first-moment tests with
    # at most 5,000 patterns, as the search poses it (blocks over half the ground
    # set complemented); twin rows and shells that pose the same problem run
    # once.  The second moment refutes 28(3) and 40(1) too, but the search
    # still sets up their problems when called on them
    captured = {}

    def capture(cap, cover, item_patterns, compat, budget):
        captured.update(cover=cover, item_patterns=item_patterns, compat=compat)
        raise _SetUp

    monkeypatch.setattr(nonexistence, "_Search", capture)
    problems = {}
    for r in enumerate_rows(6, 40):
        solutions = pair_lambda_solutions(r)
        if not solutions or counting_filters(r, solutions).cause == CAUSE_ZERO_PAIR_DEGREE:
            continue
        pairs, values = binomial(r.n, 2), [s.contain1 for s in solutions]
        if not min(values) * pairs <= pair_count_moments(r, 1)[0] <= max(values) * pairs:
            continue
        for shell in (1, 2):
            n_blocks, size, meet, degree, domain = nonexistence._shell_parameters(
                r, shell, solutions)
            if 2 * size > r.n:
                domain = {n_blocks - 2 * degree + t for t in domain}
                size, degree = r.n - size, n_blocks - degree
            if binomial(n_blocks, degree) <= 5000:
                problems.setdefault((r.n, n_blocks, size, degree, frozenset(domain)),
                                    (r, shell, solutions))
    assert len(problems) == 36
    domains = {(degree, domain) for _n, _blocks, _size, degree, domain in problems}
    assert (1, frozenset({0, 1})) in domains  # degree 1: every meet is in the domain
    assert (5, frozenset({0, 1, 2})) in domains  # the domain of 21(3) shell 2 omits degree
    for (_n, n_blocks, _size, degree, domain), (r, shell, solutions) in problems.items():
        with pytest.raises(_SetUp):
            csp_search(r, shell, solutions, budget=5000)
        patterns = list(combinations(range(n_blocks), degree))
        assert [unrank_subset(n_blocks, degree, j) for j in range(len(patterns))] == patterns
        # the pairs a < b, then the blocks (a, a), are the cover items
        items = list(combinations(range(n_blocks), 2)) + [(a, a) for a in range(n_blocks)]
        for j, p in enumerate(patterns):
            assert [items[t] for t in captured["cover"](j)] == list(
                combinations_with_replacement(p, 2))
        for i, bits in enumerate(captured["item_patterns"][-n_blocks:]):
            assert all((bits >> j & 1) == (i in p) for j, p in enumerate(patterns))
            assert bits >> len(patterns) == 0
        rows = [captured["compat"](a) for a in range(len(patterns))]
        assert rows == compatibility_rows_scan(patterns, domain, degree), r.key


def test_csp_rejects_bad_shell():
    with pytest.raises(ValueError):
        csp_search(row(6, 1), 3, pair_lambda_solutions(row(6, 1)))


def test_decide_refutes_20_4_and_20_7_by_zero_pair_degree():
    for index in (4, 7):
        verdict = decide(row(20, index))
        assert verdict.refuted and verdict.cause == CAUSE_ZERO_PAIR_DEGREE, index


def test_decide_refutes_every_nonexistent_row():
    for (n, index, *_rest, exists) in REFERENCE_ROWS:
        if not exists:
            assert decide(row(n, index)).refuted, (n, index)


def test_decide_never_refutes_existing_rows_without_registry(monkeypatch):
    # soundness of the pipeline itself: with an empty registry and a small
    # budget, no classified-existing row may come back refuted
    monkeypatch.setattr(nonexistence, "construction_registry", lambda: {})
    for (n, index, *_rest, exists) in REFERENCE_ROWS:
        if exists:
            verdict = decide(row(n, index), budget=20_000)
            assert not verdict.refuted, (n, index)


def test_decide_registry_hits_are_verified_designs():
    from tightdesigns.designs import load, shells_of
    from tightdesigns import verify

    verdict = decide(row(22, 1))
    assert verdict.found and verdict.witness["kind"] == "design"
    design = load(verdict.witness["design"])
    assert verify.moments_check(design, 2).ok
    (r1, n1, w1), (r2, n2, w2) = shells_of(design).shells
    assert (r1, r2, n1, n2, w2 / w1) == (2, 11, 11, 12, Fraction(1, 3))


def test_decide_verifies_a_design_swapped_in_under_a_verified_row(monkeypatch):
    # every catalog hit is verified, so a design put in a new registry under
    # a row verified before is checked again
    six = row(6, 1)
    assert decide(six).found
    design = construction_registry()[six.key][1]()
    bad = WeightedDesign(design.n, design.points, (2 * design.weights[0],) + design.weights[1:])
    monkeypatch.setattr(nonexistence, "construction_registry",
                        lambda: {six.key: ("bad", lambda: bad)})
    with pytest.raises(RuntimeError,
                       match="fails the moments, balanced, frame, weight constancy checks"):
        decide(six)


@pytest.mark.parametrize("source, factor", [(3, 1), (2, 2)])
def test_decide_holds_a_catalog_design_to_its_row(monkeypatch, source, factor):
    # 15(3) = (15,6,10,10,6,1) shares n, lambda1, lambda2, alpha1, alpha2 and gamma
    # with 15(2) = (15,5,9,6,10,1) but not its row; 15(2)'s own design scaled by 2 is
    # on its row at first-shell weight 2; both pass every check of full_check
    target = row(15, 2)
    design = scale_weights(construction_registry()[row(15, source).key][1](), factor)
    monkeypatch.setattr(nonexistence, "construction_registry",
                        lambda: {target.key: ("swapped", lambda: design)})
    with pytest.raises(RuntimeError, match="is not on that row at first-shell weight 1"):
        decide(target)


def test_decide_raises_a_key_error_of_a_catalog_build(monkeypatch):
    # a KeyError raised while building a catalog design is a fault of the
    # build, not a row missing from the catalog
    def broken():
        raise KeyError("coordinate")

    six = row(6, 1)
    monkeypatch.setattr(nonexistence, "construction_registry",
                        lambda: {six.key: ("broken", broken)})
    with pytest.raises(KeyError, match="coordinate"):
        decide(six)


def test_decide_is_deterministic():
    for target in ((20, 7), (21, 3), (27, 2)):
        first = decide(row(*target))
        second = decide(row(*target))
        assert first == second


def test_decide_searches_only_the_shell_with_fewer_blocks(monkeypatch):
    # at most one search per row, on the shell with fewer blocks (shell 1 on a
    # tie): over 31..60 at budget 100, and on 34(2), whose search stops in
    # mid-search at budget 50000
    calls = []

    def counted(target, shell, solutions, budget=DEFAULT_BUDGET):
        calls.append((target.key, shell))
        return csp_search(target, shell, solutions, budget)

    monkeypatch.setattr(nonexistence, "csp_search", counted)
    searched = 0
    for target, budget in ([(r, 100) for r in enumerate_rows(31, 60)]
                           + [(enumerate_rows(34, 34)[1], 50000)]):
        calls.clear()
        decide(target, budget)
        assert calls in ([], [(target.key, 1 if target.n1 <= target.n2 else 2)]), target.key
        searched += len(calls)
    assert calls and searched > 1


# sha256 over one line "n r1 r2 N1 N2 w status cause" per row of 61..200 at
# budget 50000, in enumeration order: 152 found, 1594 refuted, 664 undecided
WIDE_VERDICTS_SHA256 = "85e7057e5993d9c54c872e0bc0b04b693a01b0e40b20d52647e9a6ed6e9a1887"


def test_decide_61_to_200_verdicts_are_pinned():
    digest = hashlib.sha256()
    for target in enumerate_rows(61, 200):
        verdict = decide(target, 50000)
        digest.update(" ".join(map(str, (*target.key, verdict.status, verdict.cause))).encode()
                      + b"\n")
    assert digest.hexdigest() == WIDE_VERDICTS_SHA256


def test_registry_covers_forty_four_rows():
    registry = construction_registry()
    assert len(registry) == 44
    row_keys = {r.key for r in ALL_ROWS.values()}
    assert set(registry) <= row_keys


# sha256 of repr([(key, label, save(design)), ...]) in registry order, over the
# first 30 entries (pairings, planes and Paley designs) and then the last 14
# (Sylvester's 2-(15,7,3) and the generated designs)
REGISTRY_SHA256 = ("d0ac4c7f4b4d86358660a22cae92e498c97cb3fd0c97de5b118fd8cac542961b",
                   "7f5bf79e4480b00764b1a34fb3796dab837376c4e21ea2b632182e54e4b3f175")


def test_registry_is_pinned_and_closed_under_complement():
    built = {key: (label, build()) for key, (label, build) in construction_registry().items()}
    entries = [(key, label, save(design)) for key, (label, design) in built.items()]
    assert tuple(hashlib.sha256(repr(part).encode()).hexdigest()
                 for part in (entries[:30], entries[30:])) == REGISTRY_SHA256
    for (n, r1, r2, n1, n2, w), (label, design) in built.items():
        _twin_label, twin = built[(n, n - r2, n - r1, n2, n1, 1 / w)]
        image = complement(design)
        assert scale_weights(image, 1 / shells_of(image).shells[0][2]) == twin, label


def test_registry_builds_each_projective_geometry_once():
    # hadamard[m=15] and sylvester[4] are both PG(3, 2), and hadamard[m=11] and
    # paley[11] both Paley's 2-(11,5,2); a profiler sees the calls that the
    # catalog's partials make through the function they hold
    calls = {constructions.projective_geometry.__code__: [],
             constructions.paley_design.__code__: []}

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in calls:
            names = frame.f_code.co_varnames[:frame.f_code.co_argcount]
            calls[frame.f_code].append(tuple(frame.f_locals[name] for name in names))

    registry = catalog.registry()
    sys.setprofile(profile)
    try:
        for _label, build in registry.values():
            build()
    finally:
        sys.setprofile(None)
    geometries, paleys = calls.values()
    assert geometries == [(1, 2), (2, 2), (3, 2), (2, 3), (2, 4), (2, 5)]
    assert paleys == [(11,), (19,), (23,), (27,), (31,)]


def test_every_catalog_entry_lands_on_its_listed_key():
    # each key is computed from the entry's parameters, the Hadamard pairings'
    # w = 8/(n+2) among them; building the entry must land on it at first-shell
    # weight 1.  Each of the 22 base entries is followed by its twin
    registry = construction_registry()
    keys, labels = list(registry), [label for label, _build in registry.values()]
    assert len(keys) == 44
    assert keys[1::2] == [catalog.twin_key(key) for key in keys[::2]]
    assert labels[1::2] == [f"complement({label})" for label in labels[::2]]
    for key, (label, build) in registry.items():
        design = build()
        assert catalog.row_key(design) == key, label
        assert shells_of(design).shells[0][2] == 1, label


def test_catalog_rejects_what_is_not_one_design_per_row():
    # row_key reads only two shells of constant weight; a design put on the
    # wrong row is refused by decide (test_decide_holds_a_catalog_design_to_its_row)
    assert catalog.row_key(make_design(4, [(1, 2), (3, 4)], [1, 1])) is None
    assert catalog.row_key(make_design(4, [(1,), (2,), (1, 2)], [1, 2, 1])) is None


def test_built_registry_keeps_no_source_and_no_cycle():
    # each build keeps its design and drops its maker, so once every entry is
    # built no symmetric design is reachable from the registry, and dropping
    # the registry frees it by reference counts alone
    def reachable(root):
        seen, stack = set(), [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            yield obj
            stack.extend(gc.get_referents(obj))

    gc.collect()
    gc.disable()
    try:
        registry = catalog.registry()
        [build() for _label, build in registry.values()]  # no loop name outlives it
        assert not any(isinstance(obj, constructions.SymmetricDesign)
                       for obj in reachable(registry))
        gc.collect()  # what the builds left
        del registry
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_leaves_no_reference_cycle():
    # a search's state and cached rows must be freed on return, not left for the
    # collector: after a witness, a stop in mid-search, and a refutation after 0 nodes
    gc.collect()
    gc.disable()
    try:
        for (n, index), shell, budget, status in (((21, 3), 1, DEFAULT_BUDGET, "found"),
                                                  ((18, 2), 2, 300, "undecided"),
                                                  ((28, 3), 2, DEFAULT_BUDGET, "refuted")):
            target = row(n, index)
            verdict = csp_search(target, shell, pair_lambda_solutions(target), budget)
            assert verdict.status == status, (n, index)
            assert gc.collect() == 0, (n, index)
    finally:
        gc.enable()


def test_verdict_serialization():
    refuted = decide(row(27, 1))
    obj = verdict_to_dict(row(27, 1), refuted)
    assert obj["verdict"] == "refuted" and obj["reason"]["cause"] == CAUSE_POINT_LAMBDA
    found = decide(row(21, 3))
    obj = verdict_to_dict(row(21, 3), found)
    assert obj["verdict"] == "found" and obj["witness"]["kind"] == "shell_config"
    json.dumps(obj)  # stays JSON-serializable
