import gc
import hashlib
import random
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from oracles import covers_copying, exact_covers_brute
from tightdesigns import cli, constructions, symmetric, verify
from tightdesigns.constructions import (
    BadModulus,
    BadOrder,
    SymmetricDesign,
    UnsupportedOrder,
    complement_design,
    from_symmetric_complemented,
    from_symmetric_residual,
    hadamard_design,
    hadamard_source,
    known_designs,
    paley_design,
    projective_geometry,
)
from tightdesigns.designs import relation_profile, shells_of
from tightdesigns.hamming import holders
from tightdesigns.symmetric import rotational_blocks, symmetric_design


def fully_verified(design) -> bool:
    return (
        verify.moments_check(design, 2).ok
        and verify.tightness_check(design).tight
        and verify.frame_check(design)
        and verify.weight_constancy_check(design)
        and relation_profile(design).is_coherent
    )


def shell_summary(design):
    (r1, n1, w1), (r2, n2, w2) = shells_of(design).shells
    return r1, r2, n1, n2, w2 / w1


def test_sylvester_orders():
    # PG(k-1, 2) for k = 2..5; SymmetricDesign validates all invariants on build
    parameters = [(d.v, d.k, d.lam) for d in (projective_geometry(k - 1, 2) for k in range(2, 6))]
    assert parameters == [(3, 1, 0), (7, 3, 1), (15, 7, 3), (31, 15, 7)]


@pytest.mark.parametrize(
    "m, ratio, expected",
    [
        (3, Fraction(1), (2, 3, 3, 4)),
        (7, Fraction(1, 2), (2, 7, 7, 8)),
        (11, Fraction(1, 3), (2, 11, 11, 12)),
        (15, Fraction(1, 4), (2, 15, 15, 16)),
    ],
)
def test_hadamard_design_parameters(m, ratio, expected):
    design = hadamard_design(hadamard_source(m + 1)())
    r1, r2, n1, n2, w = shell_summary(design)
    assert (r1, r2, n1, n2) == expected
    assert w == ratio == Fraction(8, design.n + 2)
    assert design.size == 2 * m + 1 == design.n + 1
    assert fully_verified(design)


def test_hadamard_design_bad_order():
    with pytest.raises(UnsupportedOrder):
        projective_geometry(0, 2)  # order 2, m = 1: PG(0, 2) is a lone point
    with pytest.raises(BadOrder):
        hadamard_design(projective_geometry(2, 3))  # 2-(13,4,1) is not a Hadamard 2-design
    with pytest.raises(BadOrder):
        hadamard_design(complement_design(paley_design(7)))  # 2-(7,4,2): m = 7, k != 3


@pytest.mark.parametrize("order", [-4, 0, 1, 2, 3, 6, 10, 36, 52])
def test_hadamard_of_order_names_the_order(capsys, tmp_path, order):
    # below 4, not divisible by 4, or neither a power of two nor a prime power
    # plus one (35 and 51 are no prime powers): `construct hadamard --m M`
    # builds order M + 1, refuses these, and names M in its error
    target = tmp_path / "d.json"
    code = cli.run(["construct", "hadamard", "--m", str(order - 1), "--out", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    assert str(order - 1) in captured.err.split()
    assert not target.exists()


@pytest.mark.parametrize("q, v, k, lam", [(2, 7, 3, 1), (3, 13, 4, 1), (4, 21, 5, 1), (5, 31, 6, 1)])
def test_projective_planes(q, v, k, lam):
    plane = projective_geometry(2, q)  # SymmetricDesign validates all invariants on build
    assert (plane.v, plane.k, plane.lam) == (v, k, lam)


def test_projective_plane_unsupported():
    for d, q in ((2, 7), (2, 1), (0, 3), (-2, 2)):
        with pytest.raises(UnsupportedOrder, match=rf"PG\({d}, {q}\)"):
            projective_geometry(d, q)


@pytest.mark.parametrize("q, v, k, lam", [(7, 7, 3, 1), (11, 11, 5, 2), (23, 23, 11, 5), (27, 27, 13, 6)])
def test_paley_designs(q, v, k, lam):
    design = paley_design(q)
    assert (design.v, design.k, design.lam) == (v, k, lam)


def test_paley_design_bad_modulus():
    with pytest.raises(BadModulus):
        paley_design(13)  # 13 = 1 (mod 4)
    with pytest.raises(BadModulus):
        paley_design(10)  # not a prime power


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_tables_satisfy_the_field_axioms(q):
    # GF(4) and GF(27) are the extension fields the catalog reaches; GF(8),
    # GF(9), GF(16) and GF(25) are the others up to 27.  In GF(9), GF(16) and
    # GF(25) units of order below q - 1 come before the first primitive element
    add, mul, one = constructions._field(q)
    elements = range(q)
    assert len(add) == len(mul) == q and one != 0
    for a, b in product(elements, repeat=2):
        assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
    for a, b, c in product(elements, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in elements:
        assert add[0][a] == a and mul[one][a] == a
        assert 0 in add[a]  # an additive inverse
        assert a == 0 or one in mul[a]  # a multiplicative inverse


# sha256 of the repr of each design's blocks, each block a sorted list, in the
# design's block order: PG(d, 2) for d = 1..5, PG(d, q) for q = 3, 4, 5 and
# d = 1..3, then paley_design(q) for every prime power q = 3 (mod 4) below 140
# and for 243 (the extension fields GF(27) and GF(243) among them)
FIELD_BLOCKS_SHA256 = "39585f865921eb49d3f6ca53a3ee56633e99a1d02f7e3854d3c7d22db7f481de"


def test_field_built_blocks_are_pinned():
    designs = [projective_geometry(d, 2) for d in range(1, 6)]
    designs += [projective_geometry(d, q) for q in (3, 4, 5) for d in range(1, 4)]
    orders = (3, 7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127, 131, 139, 243)
    designs += [paley_design(q) for q in orders]
    blocks = [[sorted(block) for block in design.blocks] for design in designs]
    assert hashlib.sha256(repr(blocks).encode()).hexdigest() == FIELD_BLOCKS_SHA256


@pytest.mark.parametrize(
    "source, expected",
    [
        ((7, 3, 1), (7, 4, 2)),
        ((11, 5, 2), (11, 6, 3)),
        ((13, 4, 1), (13, 9, 6)),
    ],
)
def test_complement_design(source, expected):
    base = paley_design(source[0]) if source[0] in (7, 11) else projective_geometry(2, 3)
    image = complement_design(base)
    assert (image.v, image.k, image.lam) == expected


def test_complement_design_degenerate():
    """The complement of a 2-(v, v-1, v-2), whose blocks miss one point each,
    is the 2-(v, 1, 0) of the singletons: a valid symmetric design."""
    for v in range(2, 8):
        everything = frozenset(range(v))
        base = SymmetricDesign(v, v - 1, v - 2, tuple(everything - {x} for x in range(v)))
        image = complement_design(base)
        assert (image.v, image.k, image.lam) == (v, 1, 0)
        assert image.blocks == tuple(frozenset({x}) for x in range(v))


def test_symmetric_design_validation():
    fano = projective_geometry(2, 2).blocks
    with pytest.raises(ValueError):
        SymmetricDesign(7, 3, 2, fano)  # wrong lambda
    with pytest.raises(ValueError):
        SymmetricDesign(7, 3, 1, fano[:6] + (frozenset({0, 1, 2}),))
    with pytest.raises(ValueError, match="blocks must be frozensets, not list"):
        SymmetricDesign(3, 1, 0, ([0], [1], [2]))


@pytest.mark.parametrize(
    "make_source, expected",
    [
        (lambda: projective_geometry(2, 2), (2, 3, 3, 4)),  # Fano split
        (lambda: projective_geometry(2, 3), (3, 4, 4, 9)),
        (lambda: paley_design(11), (4, 5, 5, 6)),
    ],
)
def test_from_symmetric_residual(make_source, expected):
    design = from_symmetric_residual(make_source())
    r1, r2, n1, n2, w = shell_summary(design)
    assert (r1, r2, n1, n2) == expected and w == 1
    assert fully_verified(design)


def test_from_symmetric_residual_counts():
    source = projective_geometry(2, 3)
    design = from_symmetric_residual(source)
    balanced = verify.balanced_check(design, 2)
    # with unit weights the covering constants are the replication and pair counts
    assert balanced.lambdas[1] == source.k
    assert balanced.lambdas[2] == source.lam


@pytest.mark.parametrize(
    "make_source, expected",
    [
        (lambda: projective_geometry(2, 3), (4, 9, 9, 4)),
        (lambda: projective_geometry(2, 2), (3, 4, 4, 3)),
    ],
)
def test_from_symmetric_complemented(make_source, expected):
    design = from_symmetric_complemented(make_source())
    r1, r2, n1, n2, w = shell_summary(design)
    assert (r1, r2, n1, n2) == expected and w == 1
    assert fully_verified(design)


def test_from_symmetric_complemented_half_size():
    # 2k = v with k >= 2 admits no integral lam, as lam(2k-1) = k(k-1) and
    # gcd(2k-1, k) = 1; at k = 1, 2-(2,1,0) is refused like every split with
    # k < 2 or k > v - 2, which would put a shell at radius 0 or n
    assert all(k * (k - 1) % (2 * k - 1) for k in range(2, 1000))
    tiny = SymmetricDesign(2, 1, 0, (frozenset({0}), frozenset({1})))
    fano = projective_geometry(2, 2)
    for design in (tiny, paley_design(3), complement_design(paley_design(3)),
                   SymmetricDesign(7, 6, 5, tuple(frozenset(range(7)) - {x} for x in range(7)))):
        for split in (from_symmetric_residual, from_symmetric_complemented):
            with pytest.raises(ValueError, match="radius 0 or n"):
                split(design)
    assert from_symmetric_residual(fano).n == 6


def test_base_point_choice_is_isomorphic():
    plane = projective_geometry(2, 2)
    for base in (0, 3, 6):
        design = from_symmetric_residual(plane, base_point=base)
        assert shell_summary(design) == (2, 3, 3, 4, 1)
        assert fully_verified(design)


def test_known_designs_all_verify():
    from tightdesigns.feasibility import enumerate_rows

    row_keys = {r.key for r in enumerate_rows(6, 30)}
    seen = set()
    catalog = known_designs()
    assert len(catalog) == 44  # 22 base constructions, each followed by its complement
    for label, design in catalog:
        r1, r2, n1, n2, w = shell_summary(design)
        profile = shells_of(design)
        assert profile.p == 2, label
        key = (design.n, r1, r2, n1, n2, w)
        assert key in row_keys, label  # every construction lands on a classified row
        assert key not in seen, label  # and on a row of its own
        seen.add(key)
        assert fully_verified(design), label


@pytest.mark.parametrize("params", [(15, 7, 3), (16, 6, 2), (25, 9, 3), (31, 10, 3)])
def test_symmetric_design_is_deterministic_and_valid(params):
    first, second = symmetric_design(*params), symmetric_design(*params)
    assert first.blocks == second.blocks
    # SymmetricDesign checks every pair and every block intersection on construction
    assert SymmetricDesign(*params, first.blocks) == first


def test_symmetric_design_refuses_what_it_cannot_build():
    with pytest.raises(ValueError, match="no symmetric 2-\\(22,7,2\\)"):
        symmetric_design(22, 7, 2)  # excluded by Bruck-Ryser-Chowla: the search exhausts
    with pytest.raises(ValueError, match="lam = 2 or 3"):
        symmetric_design(7, 3, 1)
    with pytest.raises(ValueError, match="lam\\(v-1\\) != k\\(k-1\\)"):
        symmetric_design(10, 4, 2)


def candidate_masks(v, k, lam):
    """The generator's candidate blocks for 2-(v, k, lam), sorted: the k-sets of
    the other points (bit q for point q + 1) meeting every block through the
    base point in lam points, as the generator lists them."""
    derived = rotational_blocks(k, lam)
    rows = [sum(1 << j for j in block) for block in derived]
    return symmetric._candidates(derived, rows, holders(rows, k), lam)


# every parameter set of the generator with k <= 10, 2-(22,7,2) included
@pytest.mark.parametrize("params", [(4, 3, 2), (7, 4, 2), (11, 5, 2), (16, 6, 2), (22, 7, 2),
                                    (29, 8, 2), (5, 4, 3), (11, 6, 3), (15, 7, 3), (25, 9, 3),
                                    (31, 10, 3)])
def test_orbit_listing_matches_the_full_walk(params):
    v, k, lam = params
    derived = rotational_blocks(k, lam)
    rows = [sum(1 << j for j in block) for block in derived]
    full = symmetric._covers(rows, holders(rows, k), [lam] * k, (1 << (v - 1)) - 1)
    assert candidate_masks(*params) == sorted(sum(1 << q for q in cover) for cover in full)


@pytest.mark.parametrize("params, count, digest", [
    ((25, 9, 3), 248, "4e73377a0c543449cf24a5d7850bc228311063349d70b2be1ab60638fd24ba83"),
    ((31, 10, 3), 1272, "ab3084125cbbce3352bf67119a4889e85601288f9f178e7e6213a8e72b8183fc"),
])
def test_candidate_lists_are_pinned(params, count, digest):
    masks = candidate_masks(*params)
    assert len(masks) == count
    assert hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest() == digest


def random_cover_instances():
    """400 (masks, holders, need, meet): random masks (never empty: the search
    picks masks that hold an open bit) and needs read off a planted set of
    masks, pairwise meeting in `meet`."""
    rng = random.Random(2)
    instances = []
    for _ in range(400):
        width, count = rng.randint(1, 6), rng.randint(1, 12)
        masks = [rng.randint(1, (1 << width) - 1) for _ in range(count)]
        meet = rng.choice([None, None, 0, 1, 2])
        planted = []
        for j in rng.sample(range(count), rng.randint(0, count)):
            if meet is None or all((masks[i] & masks[j]).bit_count() == meet for i in planted):
                planted.append(j)
        need = [sum(masks[j] >> b & 1 for j in planted) for b in range(width)]
        instances.append((masks, holders(masks, width), need, meet))
    return instances


def test_covers_match_the_subset_enumeration():
    several = {False: 0, True: 0}
    for masks, holders, need, meet in random_cover_instances():
        covers = symmetric._covers(masks, holders, need, (1 << len(masks)) - 1, meet)
        covers = sorted(tuple(sorted(cover)) for cover in covers)
        assert covers == sorted(exact_covers_brute(masks, need, meet))
        several[meet is not None] += len(covers) > 1
    assert min(several.values()) >= 20


def generator_steps(v, k, lam):
    """The arguments of the generator's two exact covers for 2-(v, k, lam):
    the candidate blocks, then their completion."""
    derived = rotational_blocks(k, lam)
    rows = [sum(1 << j for j in block) for block in derived]
    candidates = candidate_masks(v, k, lam)
    return [(rows, holders(rows, k), [lam] * k, (1 << len(rows)) - 1, None),
            (candidates, holders(candidates, v - 1), [k - lam] * (v - 1),
             (1 << len(candidates)) - 1, lam)]


def test_covers_keep_the_copying_walks_order():
    # the generator takes the first completion, so the order of the covers,
    # not only their set, fixes which design it builds
    for masks, holders, need, meet in random_cover_instances():
        live = (1 << len(masks)) - 1
        assert (list(symmetric._covers(masks, holders, need, live, meet))
                == list(covers_copying(masks, holders, need, live, meet)))
    for params in ((25, 9, 3), (31, 10, 3)):
        for step, args in enumerate(generator_steps(*params)):
            # all 96 completions of 2-(25,9,3); the first 3 of the 12 of
            # 2-(31,10,3), as the copying walk takes 5 s over all of them
            prefix = 3 if (params, step) == ((31, 10, 3), 1) else None
            assert (list(islice(symmetric._covers(*args), prefix))
                    == list(islice(covers_copying(*args), prefix))), (params, step)


def test_generator_leaves_no_reference_cycle():
    # the cover walk's counts, supports and meet rows must be freed on return,
    # not left for the collector
    gc.collect()
    gc.disable()
    try:
        for params in ((16, 6, 2), (25, 9, 3), (31, 10, 3)):
            symmetric_design(*params)
            assert gc.collect() == 0, params
    finally:
        gc.enable()


@pytest.mark.parametrize("k, size", [(6, 2), (9, 3), (10, 3)])
def test_rotational_blocks_cover_every_pair_size_minus_one_times(k, size):
    blocks = rotational_blocks(k, size)
    assert len(blocks) == k * (k - 1) // size
    pairs = [pair for block in blocks for pair in combinations(block, 2)]
    assert all(pairs.count(pair) == size - 1 for pair in combinations(range(k), 2))
    if size == 2:  # the derived design of every lam = 2 design
        assert blocks == list(combinations(range(k), 2))
    if k == 10:
        assert {(0, 3, 6), (1, 4, 7), (2, 5, 8)} <= set(blocks)  # the short orbit
