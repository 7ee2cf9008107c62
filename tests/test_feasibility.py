from fractions import Fraction
from math import gcd

import pytest

from oracles import enumerate_rows_exhaustive, parse_csv
from reference_table import REFERENCE_ROWS, EMPTY_N
from tightdesigns.feasibility import (
    candidate_row,
    enumerate_rows,
    row_to_dict,
    to_csv,
    to_json_lines,
    to_table,
)
from tightdesigns.hamming import binomial

ALL_ROWS = enumerate_rows(6, 200)


def test_candidate_row_first_classified():
    row = candidate_row(6, 2, 3, 3)
    assert row is not None
    assert (row.alpha1, row.alpha2, row.gamma) == (4, 4, 3)
    assert (row.w, row.lambda1, row.lambda2) == (1, 3, 1)
    assert row.a == 1


def test_candidate_row_large():
    row = candidate_row(30, 15, 28, 16)
    assert row is not None
    assert (row.alpha1, row.alpha2, row.gamma) == (16, 4, 15)
    assert (row.w, row.lambda1, row.lambda2) == (4, 64, 56)


def test_candidate_row_rejects_fractional_alpha():
    assert candidate_row(6, 1, 2, 2) is None  # alpha_1 would be 10/3


def test_enumerate_n6_block():
    rows = enumerate_rows(6, 6)
    assert [(r.r1, r.r2, r.n1, r.n2) for r in rows] == [(2, 3, 3, 4), (3, 4, 4, 3)]


@pytest.mark.parametrize("n", EMPTY_N)
def test_enumerate_empty_orders(n):
    assert enumerate_rows(n, n) == []


def test_enumerate_n30_block_matches_reference():
    expected = [row[:1] + row[2:12] for row in REFERENCE_ROWS if row[0] == 30]
    got = [
        (r.n, r.r1, r.r2, r.n1, r.n2, r.alpha1, r.alpha2, r.gamma, r.w, r.lambda1, r.lambda2)
        for r in enumerate_rows(30, 30)
    ]
    assert len(got) == 26
    assert got == [tuple(row) for row in expected]


@pytest.mark.parametrize("n", [*range(6, 41), 48, 60])
def test_enumerate_matches_exhaustive_oracle(n):
    assert enumerate_rows(n, n) == enumerate_rows_exhaustive(n, n)


def test_enumerate_rejects_bad_range():
    with pytest.raises(ValueError):
        enumerate_rows(10, 6)


def test_complement_closure():
    keys = {r.key for r in ALL_ROWS}
    for r in ALL_ROWS:
        assert (r.n, r.n - r.r2, r.n - r.r1, r.n2, r.n1, 1 / r.w) in keys


def test_counting_identities():
    for r in ALL_ROWS:
        assert r.n1 * r.r1 + r.w * r.n2 * r.r2 == r.n * r.lambda1
        assert (binomial(r.r1, 2) * r.n1 + r.w * binomial(r.r2, 2) * r.n2
                == binomial(r.n, 2) * r.lambda2)
        assert r.gamma == r.r2 - r.r1 + 2 * r.a


def test_rows_strictly_increase():
    orders = [(r.n, r.r1, r.r2, r.n1) for r in ALL_ROWS]
    assert all(a < b for a, b in zip(orders, orders[1:]))


def test_rows_meet_divisibility_conditions():
    for r in ALL_ROWS:
        assert (r.n - r.r2) % (r.n // gcd(r.n, r.r1)) == 0
        assert 2 * r.r1 * (r.n - r.r1) % (r.n1 - 1) == 0
        assert 2 * r.r2 * (r.n - r.r2) % (r.n2 - 1) == 0


def test_radii_stay_two_from_the_ends():
    # radius 1 or n-1 forces alpha = 2 and so N = n, which N1 + N2 = n + 1 rules
    # out; the per-pair counts and the pattern search rely on this
    assert len(ALL_ROWS) == 2746
    for r in ALL_ROWS:
        assert 2 <= r.r1 < r.r2 <= r.n - 2, (r.n, r.r1, r.r2)


def test_shell_degrees_double_count_and_meet_zero_iff_degree_one():
    # the search takes lambda^(i)_1 = N_i r_i / n as each coordinate's block
    # degree and relies on meet (N-1) = size (degree-1), with and without the
    # block complement, and, after complementing blocks over half the
    # coordinates, on meet = 0 exactly when the degree is 1
    for r in ALL_ROWS:
        n = r.n
        first = Fraction((r.r2 - 1) * r.lambda1 - (n - 1) * r.lambda2, r.r2 - r.r1)
        second = ((n - 1) * r.lambda2 - (r.r1 - 1) * r.lambda1) / ((r.r2 - r.r1) * r.w)
        for lam, blocks, size, alpha in ((first, r.n1, r.r1, r.alpha1),
                                         (second, r.n2, r.r2, r.alpha2)):
            assert n * lam == blocks * size, (r.key, lam)
            meet = size - alpha // 2
            complement = (n - size, n - 2 * size + meet, blocks - lam)
            for s, m, d in ((size, meet, lam), complement):
                assert m * (blocks - 1) == s * (d - 1), (r.key, s, m, d)
            if 2 * size > n:
                size, meet, lam = complement
            assert meet >= 0 and (meet == 0) == (lam == 1), (r.key, size, meet, lam)


def test_unit_weight_rows_have_integer_lambdas():
    for r in ALL_ROWS:
        if r.w == 1:
            assert r.lambda1.denominator == 1 and r.lambda2.denominator == 1


def test_lambda_values_of_refutable_row():
    # fractional covering constants are allowed through when w != 1
    row = candidate_row(12, 4, 6, 9)
    assert row is not None
    assert (row.w, row.lambda1, row.lambda2) == (Fraction(3, 4), Fraction(9, 2), Fraction(3, 2))
    hypothetical = candidate_row(12, 6, 8, 4)
    assert (hypothetical.lambda1, hypothetical.lambda2) == (10, 6)


def test_csv_round_trip():
    rows = enumerate_rows(6, 14)
    assert parse_csv(to_csv(rows)) == rows


def test_csv_header_and_fractions():
    text = to_csv(enumerate_rows(10, 10))
    lines = text.splitlines()
    assert lines[0] == "n,r1,r2,N1,N2,alpha1,alpha2,gamma,w,lambda1,lambda2"
    assert lines[1] == "10,2,5,5,6,4,6,5,2/3,3,1"


def test_json_lines_round_trip():
    import json

    rows = enumerate_rows(12, 12)
    parsed = [json.loads(line) for line in to_json_lines(rows).splitlines()]
    assert parsed == [row_to_dict(r) for r in rows]
    first = parsed[0]
    assert first["w"] == "1" and first["N1"] == 4


def test_table_format():
    text = to_table(enumerate_rows(6, 6))
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == "n r1 r2 N1 N2 alpha1 alpha2 gamma w lambda1 lambda2".split()
    assert lines[1].split() == "6 2 3 3 4 4 4 3 1 3 1".split()


def test_row_key_uniqueness():
    keys = [r.key for r in ALL_ROWS]
    assert len(keys) == len(set(keys))


def test_parameter_row_is_hashable_and_frozen():
    row = candidate_row(6, 2, 3, 3)
    assert isinstance(hash(row), int)
    with pytest.raises(AttributeError):
        row.n = 7
