from fractions import Fraction
from math import comb

import pytest

from oppmix import spectrum as sp
from reference import conjugate_parts


def value(m: sp.HalfInteger) -> Fraction:
    return Fraction(m.twice, 2)


def exps(e1, e2):
    return [value(m) for m in sp.eigen_exponents(e1, e2).exponents]


def test_examples():
    assert exps(1, 1) == [1, 0]
    assert exps(2, 1) == [2, Fraction(1, 2)]
    assert exps(2, 2) == [4, 2, 1]


def test_requires_e1_ge_e2():
    with pytest.raises(ValueError):
        sp.eigen_exponents(1, 2)
    with pytest.raises(ValueError):
        sp.eigen_exponents(3, 0)


def test_half_integer():
    h = sp.HalfInteger(3)
    assert str(h) == "3/2"
    assert not h.is_integer
    assert value(sp.HalfInteger(4)) == 2
    assert sp.HalfInteger(4) > h


def test_endpoint_invariants():
    for e1 in range(1, 11):
        for e2 in range(1, e1 + 1):
            r = sp.eigen_exponents(e1, e2)
            ms = r.exponents
            assert len(ms) == e2 + 1
            assert value(ms[0]) == e1 * e2
            assert value(ms[-1]) == Fraction(e2 * (e1 - 1), 2)
            assert all(a > b for a, b in zip(ms, ms[1:]))
            # q^(2 m_j) is a positive integer
            for j in range(e2 + 1):
                assert r.eigenvalue_squared(2, j) >= 1
            assert r.degree(3) == 3 ** (e1 * e2)


def test_a_invariants():
    assert sp.a_invariants(sp.TwoRowPartition(5, 0)) == (0, comb(5, 2))
    assert sp.a_invariants(sp.TwoRowPartition(4, 1)) == (1, 3)
    assert sp.a_invariants(sp.TwoRowPartition(2, 1)) == (1, 0)


def test_a_star_is_a_of_conjugate():
    for d in range(1, 21):
        for j in range(0, d // 2 + 1):
            mu = sp.TwoRowPartition(d, j)
            _, a_star = sp.a_invariants(mu)
            assert a_star == sp.a_of_parts(conjugate_parts(mu))


def test_char_ratio():
    assert sp.char_ratio(sp.TwoRowPartition(5, 0)) == 1
    assert sp.char_ratio(sp.TwoRowPartition(2, 1)) == -1
    assert sp.char_ratio(sp.TwoRowPartition(4, 1)) == Fraction(1, 3)


def test_exponent_e_mu():
    assert sp.exponent_e_mu(4, 0) == 12
    assert sp.exponent_e_mu(4, 1) == 8
    assert sp.exponent_e_mu(2, 1) == 0
    for d in range(2, 15):
        for j in range(0, d // 2 + 1):
            mu = sp.TwoRowPartition(d, j)
            assert sp.exponent_e_mu(d, j) == comb(d, 2) * (1 + sp.char_ratio(mu))


def test_longest_word_length():
    assert sp.longest_word_length(2, 2) == 2
    assert sp.longest_word_length(1, 1) == 0
    assert sp.longest_word_length(3, 2) == 4
    for e1 in range(1, 8):
        for e2 in range(1, e1 + 1):
            d = e1 + e2
            assert sp.longest_word_length(e1, e2) == (d * d - d - 2 * e1 * e2) // 2


def test_pieri_constituents():
    assert [mu.parts for mu in sp.pieri_constituents(1, 1)] == [(2,), (1, 1)]
    assert [mu.parts for mu in sp.pieri_constituents(2, 1)] == [(3,), (2, 1)]
    assert [mu.parts for mu in sp.pieri_constituents(2, 2)] == [(4,), (3, 1), (2, 2)]


def test_character_route_examples():
    r = sp.eigen_exponents_via_characters(2, 2)
    assert [value(m) for m in r.exponents] == [4, 2, 1]
    r = sp.eigen_exponents_via_characters(1, 1)
    assert [value(m) for m in r.exponents] == [1, 0]


def test_routes_agree_up_to_10():
    for e1 in range(1, 11):
        for e2 in range(1, e1 + 1):
            assert sp.eigen_exponents(e1, e2) == sp.eigen_exponents_via_characters(e1, e2)


def test_eigenvalue_str():
    assert sp.eigenvalue_str(2, sp.HalfInteger(8)) == "16"
    assert sp.eigenvalue_str(4, sp.HalfInteger(1)) == "2"
    assert sp.eigenvalue_str(2, sp.HalfInteger(1)) == "1*sqrt(2)"
    assert sp.eigenvalue_str(9, sp.HalfInteger(3)) == "27"


def test_partition_validation():
    with pytest.raises(ValueError):
        sp.TwoRowPartition(3, 2)
