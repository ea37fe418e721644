"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Everything asserted here is exact arithmetic; the only tolerances are the
wall-clock guards, asserted with generous headroom over the stated budgets.
"""

import time
from fractions import Fraction

from oppmix import bounds, exactnum, forms, oracle, spectrum
from reference import col_sums, row_sums

ORTH_SYMP_CASES = sorted({(q, d) for q in (2, 3) for d in (4, 6)} | {(4, 4), (5, 4), (2, 8)})
HERMITIAN_CASES = [(2, 2), (2, 3), (2, 4)]

ANNIHILATOR_CASES = [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)]


def _ok(num, msg, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: PASS - {msg}{suffix}")


def even_splits(d):
    return [(e1, d - e1) for e1 in range(2, d - 1, 2) if e1 >= d - e1]


def all_splits(d):
    return [(e1, d - e1) for e1 in range(1, d) if e1 >= d - e1]


def test_criterion_1_spectrum_routes_agree():
    t0 = time.perf_counter()
    for e1 in range(1, 11):
        for e2 in range(1, e1 + 1):
            assert spectrum.eigen_exponents(e1, e2) == spectrum.eigen_exponents_via_characters(
                e1, e2
            )
    dt = time.perf_counter() - t0
    assert dt < 5.0  # stated budget: < 1 s
    _ok(1, "closed form == character route for all 1 <= e2 <= e1 <= 10", dt)


def test_criterion_2_annihilator_identities():
    t0 = time.perf_counter()
    for e1, e2, q in ANNIHILATOR_CASES:
        assert oracle.annihilator_check(e1, e2, q), (e1, e2, q)
    dt = time.perf_counter() - t0
    _ok(2, f"prod (N N^T - q^(2m_j) I) = 0 for {ANNIHILATOR_CASES}", dt)


def test_criterion_3_regularity():
    t0 = time.perf_counter()
    for e1, e2, q in ANNIHILATOR_CASES + [(3, 2, 2)]:
        b = oracle.build_biadjacency(e1, e2, q)
        k = q ** (e1 * e2)
        assert set(row_sums(b)) == {k}, (e1, e2, q)
        assert set(col_sums(b)) == {k}, (e1, e2, q)
    dt = time.perf_counter() - t0
    _ok(3, "all biadjacency row/column sums equal q^(e1*e2)", dt)


def test_criterion_4_counts_match_oracle():
    t0 = time.perf_counter()
    checked = 0
    for q, d in ORTH_SYMP_CASES:
        for e1, e2 in even_splits(d):
            for e in {e1, e2}:
                spform = forms.standard_form("symplectic", d, q)
                y = oracle.build_ysets(spform, e)[None]
                assert y.count == exactnum.count_nondegenerate("symplectic", e, d - e, q)
                checked += 1
                for eps in (1, -1):
                    oform = forms.standard_form("orthogonal", d, q, eps)
                    ysets = oracle.build_ysets(oform, e)
                    for sigma in (1, -1):
                        assert ysets[sigma].count == exactnum.count_nondegenerate(
                            "orthogonal", e, d - e, q, eps=eps, sigma1=sigma
                        ), (q, d, e, eps, sigma)
                        checked += 1
    for q, d in HERMITIAN_CASES:
        hform = forms.standard_form("hermitian", d, q)
        for e1, e2 in all_splits(d):
            for e in {e1, e2}:
                y = oracle.build_ysets(hform, e)[None]
                assert y.count == exactnum.count_nondegenerate("hermitian", e, d - e, q)
                checked += 1
    dt = time.perf_counter() - t0
    _ok(4, f"{checked} enumerated Y-set counts equal the closed forms", dt)


def test_criterion_5_hermitian_tight_case():
    t0 = time.perf_counter()
    hform = forms.standard_form("hermitian", 2, 2)
    y = oracle.build_ysets(hform, 1)[None]
    rep = oracle.count_complementary(y, y)
    assert rep.proportion == Fraction(1, 2)
    assert rep.proportion == 1 - Fraction(2, 2**2)  # c = 2 at (1,1,2)
    alpha = bounds.alpha_unitary(1, 1, 2)
    lower = bounds.mixing_lower_bound(alpha, alpha, 1, 1, 4)
    assert bounds.compare(lower, rep.proportion) == 0  # the mixing bound is attained
    dt = time.perf_counter() - t0
    _ok(5, "hermitian (1,1,2): proportion = 1/2 = 1 - 2/q^2 = mixing bound", dt)


def test_criterion_6_orthogonal_sweep_and_exceptions():
    t0 = time.perf_counter()
    failing = set()
    n_pass = 0
    for q in exactnum.prime_powers_upto(5):
        for m1 in range(1, 7):
            for m2 in range(1, m1 + 1):
                for eps in (1, -1):
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            rep = bounds.bound_orthogonal(eps, s1, s2, m1, m2, q)
                            if rep.passed:
                                n_pass += 1
                            else:
                                failing.add((q, m2, m1))
    sweep_dt = time.perf_counter() - t0
    assert failing == set(bounds.THEOREM["orthogonal"].exceptions)
    assert sweep_dt < 5.0  # stated budget: < 1 s

    oracle_t0 = time.perf_counter()
    for q, m2, m1 in bounds.THEOREM["orthogonal"].exceptions:
        threshold = 1 - Fraction(3, 2 * q)
        cases = [(s1, s2, threshold) for s1 in (1, -1) for s2 in (1, -1)]
        for eps in (1, -1):
            form = forms.standard_form("orthogonal", 2 * (m1 + m2), q, eps)
            reps = oracle.count_case(form, 2 * m1, 2 * m2, cases)
            for rep in reps:
                assert rep.proportion >= threshold, rep.case
            if m1 + m2 == 2:
                fulls = oracle.count_case(form, 2 * m1, 2 * m2, cases, full_pairs=True)
                for full, rep in zip(fulls, reps):
                    assert full.proportion == rep.proportion
                    assert full.pairs == rep.pairs
    dt = time.perf_counter() - t0
    _ok(
        6,
        f"sweep: {n_pass} combos pass 1-3/(2q); failures are exactly the 7 "
        f"exception tuples, each oracle-verified (d=4 also by full pairs)",
        dt,
    )


def test_criterion_7_symplectic_sweep():
    t0 = time.perf_counter()
    n = 0
    for q in (2, 3, 4):
        for m1 in range(1, 9):
            for m2 in range(1, m1 + 1):
                if 2 * (m1 + m2) >= 20:
                    continue
                rep = bounds.bound_symplectic(m1, m2, q)
                assert rep.passed, rep.label()
                n += 1
    for q in exactnum.prime_powers_upto(97):
        if q >= 5:
            assert 1 - Fraction(1, q) - Fraction(2, q**2) > 1 - Fraction(10, 7 * q)
    dt = time.perf_counter() - t0
    assert dt < 5.0  # stated budget: < 1 s
    _ok(7, f"{n} symplectic tuples pass 1-10/(7q); q >= 5 branch verified to 97", dt)


def test_criterion_8_unitary_sweep():
    t0 = time.perf_counter()
    n = 0
    for q in (2, 3):
        for e1 in range(2, 9):
            for e2 in range(2, e1 + 1):
                if e1 + e2 >= 10:
                    continue
                rep = bounds.bound_unitary(e1, e2, q)
                assert rep.passed, rep.label()
                assert rep.threshold == 1 - Fraction(63, 50 * q**2)
                n += 1
    n1 = 0
    for q in exactnum.prime_powers_upto(9):
        for e1 in range(1, 41):
            rep = bounds.bound_unitary(e1, 1, q)
            assert rep.passed, rep.label()
            n1 += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0  # stated budget: < 1 s
    _ok(8, f"{n} unitary displays pass 1-1.26/q^2; {n1} rank-one c1 bounds hold", dt)


def test_criterion_9_mixing_property_suite():
    t0 = time.perf_counter()
    for e1, e2, q in ((2, 2, 2), (2, 1, 3)):
        reports = oracle.mixing_suite(e1, e2, q, trials=100, seed=0)
        assert all(r.holds for r in reports)
        interior = [r for r in reports if r.charpoly_ok is not None]
        assert interior and all(r.charpoly_ok for r in interior)
        boundary = [r for r in reports if 1 in (r.alpha1, r.alpha2) or 0 in (r.alpha1, r.alpha2)]
        assert boundary and all(r.tight for r in boundary)
    dt = time.perf_counter() - t0
    assert dt < 30.0  # stated budget: < 10 s
    _ok(9, "mixing inequality + quotient charpoly identity on both graphs", dt)


def test_criterion_10_alpha_cross_validation():
    t0 = time.perf_counter()
    checked = 0
    for q, d in ORTH_SYMP_CASES:
        for e1, e2 in even_splits(d):
            m1, m2 = e1 // 2, e2 // 2
            n1 = exactnum.gaussian_binomial(d, e1, q)
            n2 = exactnum.gaussian_binomial(d, e2, q)
            spform = forms.standard_form("symplectic", d, q)
            assert bounds.alpha_symplectic(m1, m2, q) == Fraction(
                oracle.build_ysets(spform, e1)[None].count, n1
            )
            checked += 1
            for eps in (1, -1):
                oform = forms.standard_form("orthogonal", d, q, eps)
                ys = {e: oracle.build_ysets(oform, e) for e in {e1, e2}}
                for sigma in (1, -1):
                    assert bounds.alpha_orthogonal(eps, sigma, m1, m2, q) == Fraction(
                        ys[e1][sigma].count, n1
                    )
                    assert bounds.alpha_orthogonal(eps, sigma, m2, m1, q) == Fraction(
                        ys[e2][sigma].count, n2
                    )
                    checked += 2
    for q, d in HERMITIAN_CASES:
        hform = forms.standard_form("hermitian", d, q)
        for e1, e2 in all_splits(d):
            assert bounds.alpha_unitary(e1, e2, q) == Fraction(
                oracle.build_ysets(hform, e1)[None].count, exactnum.gaussian_binomial(d, e1, q * q)
            )
            checked += 1
    # the headline values
    assert bounds.alpha_orthogonal(1, 1, 1, 1, 2) == Fraction(18, 35)
    assert bounds.alpha_orthogonal(1, -1, 1, 1, 2) == Fraction(2, 35)
    assert bounds.alpha_symplectic(1, 1, 2) == Fraction(4, 7)
    dt = time.perf_counter() - t0
    _ok(10, f"{checked} alpha formulas equal oracle |Y|/|X| exactly", dt)
