from fractions import Fraction

import pytest

from oppmix import exactnum as en
from oppmix.gf import field
from reference import enumerate_subspaces


def test_prime_power_parsing():
    pp = en.prime_power(8)
    assert (pp.p, pp.k, pp.q) == (2, 3, 8)
    assert en.prime_power(7).k == 1
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            en.prime_power(bad)
    assert en.prime_powers_upto(10) == [2, 3, 4, 5, 7, 8, 9]


def test_prime_power_of_large_q():
    # trial division stops at isqrt(q): a large prime, a large prime power,
    # and a large composite with two distinct prime factors
    assert en.prime_power(1_000_000_007) == en.PrimePower(1_000_000_007, 1, 1_000_000_007)
    assert en.prime_power(10_007**2) == en.PrimePower(10_007, 2, 10_007**2)
    assert not en.is_prime_power(10_007 * 10_009)
    assert not en.is_prime_power(2 * 1_000_000_007)


def test_prime_power_record_checks_its_fields():
    assert en.PrimePower(3, 2, 9) == en.prime_power(9)
    for bad in ((4, 1, 4), (2, 2, 5), (2, 0, 1)):
        with pytest.raises(ValueError):
            en.PrimePower(*bad)


def test_parse_sign():
    assert en.parse_sign("+") == 1
    assert en.parse_sign("-") == -1
    assert en.parse_sign(1) == 1
    with pytest.raises(ValueError):
        en.parse_sign("x")


def test_gaussian_binomial_examples():
    assert en.gaussian_binomial(4, 0, 2) == 1
    assert en.gaussian_binomial(2, 1, 3) == 4
    # independent oracle: enumerate 2-subspaces of (F_2)^4 by RREF
    assert en.gaussian_binomial(4, 2, 2) == sum(1 for _ in enumerate_subspaces(4, 2, field(2)))
    assert en.gaussian_binomial(4, 2, 2) == 35


def test_gaussian_binomial_errors():
    with pytest.raises(ValueError):
        en.gaussian_binomial(2, 3, 2)
    with pytest.raises(ValueError):
        en.gaussian_binomial(4, 2, 1)


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for a in range(13):
            for b in range(a + 1):
                assert en.gaussian_binomial(a, b, q) == en.gaussian_binomial(a, a - b, q)


def test_omega_examples():
    assert en.omega(2, 0) == 1
    assert en.omega(5, 0) == 1
    assert en.omega(2, 2) == Fraction(3, 8)
    assert en.omega(-2, 2) == Fraction(9, 8)


def test_omega_monotone_and_positive():
    for q in range(2, 10):
        prev = Fraction(2)
        for e in range(0, 65):
            w = en.omega(q, e)
            assert 0 < w < prev or e == 0
            prev = w
            # finite stand-in for the infinite-product estimate
            assert w > 1 - Fraction(1, q) - Fraction(1, q**2)


def test_omega_signed_base_positive():
    for q in (2, 3, 4, 5):
        for e in range(0, 20):
            assert en.omega(-q, e) > 0


def test_bq_examples():
    assert en.bq(2, 3, 0) == 1
    assert en.bq(2, 1, 1) == Fraction(2, 3)
    assert en.gaussian_binomial(2, 1, 2) == Fraction(2) / en.bq(2, 1, 1) == 3
    assert en.bq(-2, 1, 1) == 2


def test_kernel_errors():
    for bad in ((1, 2), (-1, 0), (0, 3), (2, -1), (-3, -1)):
        with pytest.raises(ValueError):
            en.omega(*bad)
    for bad in ((1, 1, 1), (-1, 0, 0), (2, -1, 0), (-3, 0, -2)):
        with pytest.raises(ValueError):
            en.bq(*bad)
    with pytest.raises(ValueError):
        en.lambda_factor(1, 1, 0, 1, 2)


def test_bq_gaussian_identity():
    for q in (2, 3, 4, 5):
        for e1 in range(0, 7):
            for e2 in range(0, 7):
                lhs = Fraction(q ** (e1 * e2))
                rhs = en.gaussian_binomial(e1 + e2, e1, q) * en.bq(q, e1, e2)
                assert lhs == rhs


def test_group_orders():
    assert en.group_order_go(1, 1, 2) == 2
    assert en.group_order_go(1, -1, 2) == 6
    assert en.group_order_go(2, 1, 2) == 72
    assert en.group_order_sp(1, 2) == 6
    assert en.group_order_sp(2, 2) == 720
    assert en.group_order_sp(1, 3) == 24
    assert en.group_order_gu(1, 2) == 3
    assert en.group_order_gu(2, 2) == 18
    assert en.group_order_gu(2, 3) == 96


def test_group_order_omega_identities():
    # |Sp_2m(q)| = q^(2m^2+m) omega_{q^2}(m), |GU_d(q)| = q^(d^2) omega_{-q}(d)
    for q in (2, 3, 4):
        for m in range(1, 5):
            assert en.group_order_sp(m, q) == Fraction(q) ** (2 * m * m + m) * en.omega(q * q, m)
        for d in range(1, 6):
            assert en.group_order_gu(d, q) == Fraction(q) ** (d * d) * en.omega(-q, d)
        for m in range(1, 5):
            for sigma in (1, -1):
                expected = (
                    2
                    * Fraction(q) ** (m * (2 * m - 1))
                    * en.omega(q * q, m)
                    / (1 + Fraction(sigma, q**m))
                )
                assert en.group_order_go(m, sigma, q) == expected


def test_count_nondegenerate_examples():
    assert en.count_nondegenerate("symplectic", 2, 2, 2) == 20
    assert en.count_nondegenerate("orthogonal", 2, 2, 2, eps=1, sigma1=-1) == 2
    assert en.count_nondegenerate("hermitian", 1, 1, 2) == 2


def test_count_nondegenerate_preconditions():
    with pytest.raises(ValueError):
        en.count_nondegenerate("symplectic", 3, 2, 2)
    with pytest.raises(ValueError):
        en.count_nondegenerate("orthogonal", 2, 1, 2, eps=1, sigma1=1)
    with pytest.raises(ValueError):
        en.count_nondegenerate("hermitian", 0, 1, 2)


def test_count_divisions_exact_across_sweep():
    # every orbit-stabilizer division in the theorem ranges is exact
    for q in (2, 3, 4, 5):
        for m1 in range(1, 7):
            for m2 in range(1, m1 + 1):
                en.count_nondegenerate("symplectic", 2 * m1, 2 * m2, q)
                for eps in (1, -1):
                    for s in (1, -1):
                        en.count_nondegenerate(
                            "orthogonal", 2 * m1, 2 * m2, q, eps=eps, sigma1=s
                        )
    for q in (2, 3, 4, 5):
        for e1 in range(1, 10):
            for e2 in range(1, e1 + 1):
                en.count_nondegenerate("hermitian", e1, e2, q)


def test_hermitian_count_identity():
    # |Y| = q^(2 e1 e2) / B_{-q}(e1, e2), with the signed-base omega
    for q in (2, 3, 4):
        for e1 in range(1, 5):
            for e2 in range(1, e1 + 1):
                formula = Fraction(q) ** (2 * e1 * e2) / en.bq(-q, e1, e2)
                assert formula == en.count_nondegenerate("hermitian", e1, e2, q)


def test_lambda_factor_examples():
    assert en.lambda_factor(-1, 1, 1, 1, 2) == Fraction(1, 10)
    assert en.lambda_factor(1, 1, 1, 1, 2) == Fraction(9, 10)


def test_lambda_partition_identity():
    # summing the orbit formula over sigma1 recovers both typed counts
    for q in (2, 3, 4):
        for m1 in range(1, 4):
            for m2 in range(1, m1 + 1):
                e1, e2 = 2 * m1, 2 * m2
                for eps in (1, -1):
                    total = sum(
                        en.lambda_factor(s, eps, m1, m2, q)
                        * q ** (e1 * e2)
                        / en.bq(q * q, m1, m2)
                        for s in (1, -1)
                    )
                    counted = sum(
                        en.count_nondegenerate("orthogonal", e1, e2, q, eps=eps, sigma1=s)
                        for s in (1, -1)
                    )
                    assert total == counted


def test_orbit_formula_matches_integer_counts():
    # |Y1| = q^(e1 e2) lambda(sigma1, eps) / B_{q^2}(m1, m2), exactly
    for q in (2, 3):
        for m1 in range(1, 4):
            for m2 in range(1, m1 + 1):
                e1, e2 = 2 * m1, 2 * m2
                for eps in (1, -1):
                    for s in (1, -1):
                        formula = (
                            q ** (e1 * e2)
                            * en.lambda_factor(s, eps, m1, m2, q)
                            / en.bq(q * q, m1, m2)
                        )
                        assert formula == en.count_nondegenerate(
                            "orthogonal", e1, e2, q, eps=eps, sigma1=s
                        )
