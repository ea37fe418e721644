from itertools import product

import pytest

from oppmix import gf
from oppmix.gf import FIXED_MODULI, field
from reference import field_pow, squares


def test_inventory_and_moduli():
    assert FIXED_MODULI[4] == (1, 1, 1)
    assert FIXED_MODULI[8] == (1, 1, 0, 1)
    assert FIXED_MODULI[9] == (2, 2, 1)
    assert FIXED_MODULI[16] == (1, 1, 0, 0, 1)
    assert FIXED_MODULI[25] == (2, 1, 1)
    with pytest.raises(ValueError):
        field(6)
    with pytest.raises(ValueError):
        field(27)


def test_f2_trivial():
    f = field(2)
    assert f.modulus == (1, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_f4_multiplication():
    # omega encodes as 2, omega + 1 as 3
    f = field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1


def test_f3_inverse():
    assert field(3).inv(2) == 2


def test_additive_identity():
    for q in FIXED_MODULI:
        f = field(q)
        assert all(f.add(x, 0) == x for x in f.elements())
        assert all(f.add(x, f.neg(x)) == 0 for x in f.elements())


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = field(q)
    els = list(f.elements())
    for x, y in product(els, repeat=2):
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
    for x, y, z in product(els, repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
def test_multiplicative_group(q):
    f = field(q)
    for x in range(1, q):
        assert field_pow(f, x, q - 1) == 1
        assert f.mul(x, f.inv(x)) == 1


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
def test_squares(q):
    f = field(q)
    assert squares(f) == {field_pow(f, x, 2) for x in range(1, q)}
    if q % 2:
        assert len(squares(f)) == (q - 1) // 2
        # Euler's criterion: x is a square iff x^((q-1)/2) = 1
        assert squares(f) == {x for x in range(1, q) if field_pow(f, x, (q - 1) // 2) == 1}
    else:
        assert squares(f) == set(range(1, q))  # squaring is a bijection in characteristic 2


def test_reducible_modulus_raises(monkeypatch):
    monkeypatch.setitem(gf.FIXED_MODULI, 4, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ArithmeticError):
        gf.Field(4)


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_conjugation(q):
    f = field(q)
    base = f.base
    assert base * base == q
    assert f.conj(0) == 0 and f.conj(1) == 1
    fixed = {x for x in f.elements() if f.conj(x) == x}
    assert len(fixed) == base
    for x in f.elements():
        assert f.conj(f.conj(x)) == x
        assert f.conj(x) == field_pow(f, x, base)


def test_f4_conj_example():
    f = field(4)
    assert f.conj(2) == 3  # omega -> omega^2 = omega + 1


def test_f9_conj_is_cube():
    f = field(9)
    for x in f.elements():
        assert f.conj(x) == field_pow(f, x, 3)


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_norm_surjects_onto_fixed_field(q):
    f = field(q)
    fixed = {x for x in f.elements() if f.conj(x) == x}
    norms = {f.mul(x, f.conj(x)) for x in f.elements()}
    assert norms == fixed


def test_conj_requires_quadratic_extension():
    with pytest.raises(ValueError):
        field(8).conj(3)
