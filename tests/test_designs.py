import json
from fractions import Fraction

import pytest

from oracles import make_design
from tightdesigns import constructions
from tightdesigns.designs import (
    MalformedFile,
    WeightedDesign,
    WrongShellCount,
    complement,
    load,
    relation_profile,
    save,
    scale_weights,
    shells_of,
)
from tightdesigns.hamming import word


def hadamard_six():
    return constructions.hadamard_design(constructions.projective_geometry(1, 2))


def hadamard_fourteen():
    return constructions.hadamard_design(constructions.projective_geometry(2, 2))


def test_model_validation():
    with pytest.raises(ValueError):
        make_design(4, [(1, 2), (1, 2)], [1, 1])  # duplicate point
    with pytest.raises(ValueError):
        make_design(4, [(1, 2)], [0])  # nonpositive weight
    with pytest.raises(ValueError):
        WeightedDesign(4, (1 << 4,), (Fraction(1),))  # not a word of length 4
    with pytest.raises(ValueError):
        WeightedDesign(4, (-1,), (Fraction(1),))  # no word at all
    with pytest.raises(ValueError):
        WeightedDesign(0, (0,), (Fraction(1),))  # words have positive length
    with pytest.raises(ValueError):
        make_design(4, [(1,), (2,)], [1])  # length mismatch


def test_shells_of_six_design():
    profile = shells_of(hadamard_six())
    assert profile.shells == ((2, 3, Fraction(1)), (3, 4, Fraction(1)))
    assert profile.p == 2 and profile.radii == (2, 3)


def test_shells_of_single_point_and_nonconstant():
    single = make_design(10, [(1, 2, 3, 4, 5)], [Fraction(3, 7)])
    assert shells_of(single).shells == ((5, 1, Fraction(3, 7)),)
    mixed = make_design(6, [(1, 2), (3, 4), (1, 2, 3)], [1, 2, 1])
    assert shells_of(mixed).shells == ((2, 2, None), (3, 1, Fraction(1)))


def test_relation_profile_six_and_fourteen():
    six = relation_profile(hadamard_six())
    assert (six.within_first, six.within_second, six.between) == ({4}, {4}, {3})
    assert six.is_coherent
    fourteen = relation_profile(hadamard_fourteen())
    assert (fourteen.within_first, fourteen.within_second, fourteen.between) == ({4}, {8}, {7})


def test_relation_profile_singleton_shell():
    d = make_design(6, [(1, 2), (1, 2, 3), (2, 3, 4)], [1, 1, 1])
    profile = relation_profile(d)
    assert profile.within_first == frozenset()
    assert profile.within_second == {2}


def test_relation_profile_needs_two_shells():
    with pytest.raises(WrongShellCount):
        relation_profile(make_design(6, [(1, 2), (3, 4)], [1, 1]))
    with pytest.raises(WrongShellCount):
        relation_profile(make_design(6, [(1,), (1, 2), (1, 2, 3)], [1, 1, 1]))


def test_complement_involution_and_parameters():
    for design in (hadamard_six(), hadamard_fourteen()):
        image = complement(design)
        assert complement(image) == design
        assert image.weights == design.weights
    # on every word of length n <= 6: an involution taking shell r to shell n - r
    for n in range(1, 7):
        every = WeightedDesign(n, tuple(range(1 << n)), (Fraction(1),) * (1 << n))
        image = complement(every)
        assert complement(image) == every
        assert [q.bit_count() for q in image.points] == [n - p.bit_count() for p in every.points]
    assert complement(make_design(6, [(1, 2)], [1])).points == (word((3, 4, 5, 6)),)
    # the 14-point design on shells (2,7) with ratio 1/2 maps onto (7,12) with ratio 2
    image = complement(hadamard_fourteen())
    profile = shells_of(image)
    (r1, n1, w1), (r2, n2, w2) = profile.shells
    assert (r1, r2, n1, n2) == (7, 12, 8, 7)
    assert w2 / w1 == 2


def test_complement_22_parameters():
    design = constructions.hadamard_design(constructions.hadamard_source(12)())
    image = complement(design)
    (r1, n1, w1), (r2, n2, w2) = shells_of(image).shells
    assert (r1, r2, n1, n2, w2 / w1) == (11, 20, 12, 11, Fraction(3))


def test_scale_weights():
    d = hadamard_fourteen()
    scaled = scale_weights(d, Fraction(2))
    assert scaled.weights == tuple(2 * w for w in d.weights)
    with pytest.raises(ValueError):
        scale_weights(d, 0)


def test_save_load_round_trip():
    for design in (hadamard_six(), hadamard_fourteen()):
        assert load(save(design)) == design
    # every word of length n <= 6 comes back as the same int, coordinate 1 (bit 0) first
    for n in range(1, 7):
        for bits in range(1 << n):
            blob = save(WeightedDesign(n, (bits,), (Fraction(1),)))
            assert json.loads(blob)["points"] == ["".join(str(bits >> i & 1) for i in range(n))]
            assert load(blob).points == (bits,)


def test_save_format():
    blob = save(make_design(4, [(1, 2)], [Fraction(3, 2)]))
    text = blob.decode()
    assert '"1100"' in text and '"3/2"' in text


def test_load_weight_fraction():
    d = load('{"n": 4, "points": ["1100"], "weights": ["3/2"]}')
    assert d.weights == (Fraction(3, 2),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"n": 4, "points": ["1100", "1100"], "weights": ["1", "1"]}', "duplicate"),
        ("not json", "invalid JSON"),
        ('{"n": 4, "points": ["110"], "weights": ["1"]}', "bad bit string"),
        ('{"n": 4, "points": ["10x0"], "weights": ["1"]}', "bad bit string"),
        ('{"n": 4, "points": ["1_00"], "weights": ["1"]}', "bad bit string"),  # int() takes it
        ('{"n": 4, "points": ["1100"], "weights": ["1.5"]}', "p/q"),
        ('{"n": 4, "points": ["1100"], "weights": ["-1"]}', "positive"),
        ('{"n": 4, "points": ["1100"], "weights": []}', "weights"),
        ('{"n": 4, "points": ["1100"]}', "missing field"),
        ('{"n": 0, "points": [], "weights": []}', "positive integer"),
        ("[1, 2]", "object"),
    ],
)
def test_load_malformed(text, fragment):
    with pytest.raises(MalformedFile, match=fragment):
        load(text)
