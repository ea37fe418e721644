import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from oppmix import bounds, cli, exactnum, forms, oracle, sweep
from oppmix.exactnum import compare, surd
from reference import enumerate_subspaces, restrict


def interval_sign(a: Fraction, b: Fraction, base: int) -> int:
    """Independent sign oracle: 256-bit integer interval around sqrt(base)."""
    shift = 1 << 256
    lo = isqrt(base * shift * shift)  # floor(sqrt(base) * 2^256)
    hi = lo + 1
    lo_val = a + b * Fraction(lo if b >= 0 else hi, shift)
    hi_val = a + b * Fraction(hi if b >= 0 else lo, shift)
    if lo_val > 0:
        return 1
    if hi_val < 0:
        return -1
    # straddles zero at 256 bits: only an exact zero survives that
    return 0


def test_quadext_construction_folds_squares():
    x = surd(Fraction(1, 3), Fraction(2), 9)
    assert x == (Fraction(19, 3), 0, 0)
    y = surd(0, 1, Fraction(9, 4))
    assert y == (Fraction(3, 2), 0, 0)
    z = surd(1, -1, Fraction(2, 3))
    assert z.base == 6 and z.b == Fraction(-1, 3)
    assert surd(Fraction(1, 2)) == (Fraction(1, 2), 0, 0)  # a rational stays rational
    assert surd(5, 0, 2) == (5, 0, 0)  # b == 0 forces base == 0
    with pytest.raises(ValueError):
        surd(0, 1, Fraction(-1, 4))


def test_quadext_sign_examples():
    assert compare(surd(0, 1, 2), 0) == 1
    assert compare(surd(0, -1, 2), 0) == -1
    assert compare(surd(0, 1, 2), 1) == 1  # sqrt(2) > 1
    assert compare(surd(0, 1, 2), 2) == -1  # sqrt(2) < 2
    assert compare(surd(0, 1, 2), Fraction(3, 2)) == -1  # sqrt(2) < 3/2
    assert compare(surd(0, 2, 2), 3) == -1  # 2 sqrt(2) = 2.828...
    assert compare(surd(-2, 1, 4), 0) == 0  # folded: sqrt(4) = 2
    assert compare(surd(Fraction(1, 2)), Fraction(1, 2)) == 0
    with pytest.raises(TypeError):  # no lexicographic tuple order
        surd(0, 1, 2) < surd(1)


def test_quadext_sign_against_interval_oracle():
    rng = random.Random(0)
    qs = [2, 3, 5, 6, 7, 10, 97, 561]
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        base = rng.choice(qs)
        assert compare(surd(a, b, base), t) == interval_sign(a - t, b, base)


def test_quadext_zero_detection():
    # a + b sqrt(base) = 0 forces a = b = 0 for non-square base
    rng = random.Random(1)
    for _ in range(500):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (compare(surd(a, b, 7), 0) == 0) == (a == 0 and b == 0)


def test_omega_tail_lower_is_sound():
    # the rational certificate sits below every finite truncation
    for q in (2, 3, 5, 9):
        w = bounds.omega_tail_lower(q, 64)
        for e in range(64, 70):
            assert w < exactnum.omega(q, e)


def test_mixing_lower_bound_alpha_one():
    assert bounds.mixing_lower_bound(1, 1, 2, 2, 2) == surd(exactnum.bq(2, 2, 2))
    assert bounds.mixing_lower_bound(1, 1, 3, 1, 3) == surd(exactnum.bq(3, 3, 1))


def test_mixing_lower_bound_hermitian_tight():
    val = bounds.mixing_lower_bound(Fraction(2, 5), Fraction(2, 5), 1, 1, 4)
    assert val == surd(Fraction(1, 2))


def test_mixing_lower_bound_symmetric_alpha_collapses():
    def value(x):
        # a + b sqrt(n) as (a, sign(b) b^2 n), equal exactly when the values are:
        # at odd d the two sides carry the same radical under different radicands
        return x.a, ((x.b > 0) - (x.b < 0)) * x.b * x.b * x.base

    for q, e1, e2 in [(2, 2, 2), (3, 2, 1), (2, 4, 2)]:
        alpha = Fraction(1, 3)
        sym = bounds.mixing_lower_bound(alpha, alpha, e1, e2, q)
        d = e1 + e2
        k = exactnum.bq(q, e1, e2)
        direct = surd(k, -k * (1 / alpha - 1), Fraction(1, q**d))  # k (1 - (1/alpha - 1) q^(-d/2))
        assert value(sym) == value(direct)


def test_mixing_lower_bound_validation():
    with pytest.raises(ValueError):
        bounds.mixing_lower_bound(0, Fraction(1, 2), 2, 2, 2)
    with pytest.raises(ValueError):
        bounds.mixing_lower_bound(Fraction(3, 2), 1, 2, 2, 2)


def test_corollary_bound_examples():
    assert bounds.corollary_bound(1, 4, 2) == surd(1 - Fraction(3, 4))
    assert bounds.corollary_bound(Fraction(1, 2), 4, 2) == surd(Fraction(3, 16))
    assert bounds.corollary_bound(Fraction(2, 3), 6, 3) == surd(Fraction(53, 108))


def test_bound_ordering_two_alpha_vs_uniform_vs_corollary():
    # sharper bounds dominate pointwise; the corollary comparison scales the
    # inner factor by a smaller constant, so it only orders when that factor
    # is non-negative
    checked_corollary = 0
    for q in (2, 3):
        for m1 in (1, 2, 3):
            for m2 in range(1, m1 + 1):
                e1, e2, d = 2 * m1, 2 * m2, 2 * (m1 + m2)
                for eps in (1, -1):
                    a1 = bounds.alpha_orthogonal(eps, 1, m1, m2, q)
                    a2 = bounds.alpha_orthogonal(eps, -1, m2, m1, q)
                    amin = min(a1, a2)
                    two = bounds.mixing_lower_bound(a1, a2, e1, e2, q)
                    uni = bounds.mixing_lower_bound(amin, amin, e1, e2, q)
                    assert uni.b == 0  # equal densities, even d: rational
                    assert compare(two, uni.a) >= 0
                    inner = 1 - (1 / amin - 1) * Fraction(1, q ** (d // 2))
                    if inner >= 0:
                        cor = bounds.corollary_bound(amin, d, q)
                        assert cor.b == 0
                        assert compare(uni, cor.a) >= 0
                        checked_corollary += 1
    assert checked_corollary > 20


def test_alpha_examples():
    assert bounds.alpha_orthogonal(1, -1, 1, 1, 2) == Fraction(2, 35)
    assert bounds.alpha_orthogonal(1, 1, 1, 1, 2) == Fraction(18, 35)
    assert bounds.alpha_symplectic(1, 1, 2) == Fraction(4, 7)
    assert bounds.alpha_unitary(1, 1, 2) == Fraction(2, 5)
    with pytest.raises(ValueError):
        bounds.alpha_unitary(2, 0, 2)


def test_alpha_partition_sums_to_one():
    for q in (2, 3):
        for eps in (1, -1):
            form = forms.standard_form("orthogonal", 4, q, eps)
            subspaces = enumerate_subspaces(4, 2, form.field)
            degenerate = sum(forms.classify(restrict(form, s)) is None for s in subspaces)
            n = exactnum.gaussian_binomial(4, 2, q)
            kept = sum(y.count for y in oracle.build_ysets(form, 2).values())
            assert n - kept == degenerate
            a_plus = bounds.alpha_orthogonal(eps, 1, 1, 1, q)
            a_minus = bounds.alpha_orthogonal(eps, -1, 1, 1, q)
            assert a_plus + a_minus + Fraction(degenerate, n) == 1


def test_alpha_matches_oracle_density():
    for q in (2, 3):
        for eps in (1, -1):
            form = forms.standard_form("orthogonal", 6, q, eps)
            n = exactnum.gaussian_binomial(6, 4, q)
            ysets = oracle.build_ysets(form, 4)
            for sigma in (1, -1):
                y = ysets[sigma]
                assert bounds.alpha_orthogonal(eps, sigma, 2, 1, q) == Fraction(y.count, n)
    spform = forms.standard_form("symplectic", 4, 3)
    y = oracle.build_ysets(spform, 2)[None]
    assert bounds.alpha_symplectic(1, 1, 3) == Fraction(y.count, exactnum.gaussian_binomial(4, 2, 3))
    hform = forms.standard_form("hermitian", 3, 2)
    y = oracle.build_ysets(hform, 2)[None]
    assert bounds.alpha_unitary(2, 1, 2) == Fraction(y.count, exactnum.gaussian_binomial(3, 2, 4))


def test_bound_orthogonal_report():
    rep = bounds.bound_orthogonal(1, 1, 1, 1, 1, 2)
    assert rep.alpha1 == Fraction(18, 35)
    assert rep.lower_bound == surd(Fraction(22, 63))
    assert rep.passed and not rep.tight
    assert rep.note is not None  # (2,1,1) is an exception tuple
    rep2 = bounds.bound_orthogonal(1, -1, -1, 1, 1, 2)
    assert not rep2.passed  # the combination that makes (2,1,1) an exception


def test_bound_orthogonal_relaxed_is_bestlb():
    # with both densities replaced by the worst one, the closed form is
    # B_q(e1,e2)(1 + q^(-d/2)) - lambda(-,+)^(-1) B_{q^2}(m1,m2) q^(-d/2)
    for q in (2, 3, 7):
        for m1, m2 in [(1, 1), (2, 1), (3, 2)]:
            rep = bounds.bound_orthogonal(1, 1, -1, m1, m2, q)
            lam = exactnum.lambda_factor(-1, 1, m1, m2, q)
            alpha = lam * exactnum.bq(q, 2 * m1, 2 * m2) / exactnum.bq(q * q, m1, m2)
            uniform = bounds.mixing_lower_bound(alpha, alpha, 2 * m1, 2 * m2, q)
            assert uniform == surd(rep.relaxed_bound)


def test_bound_orthogonal_q7_display():
    # the q >= 7, m1 = m2 = 1 display, frozen exactly
    q = 7
    one_q = Fraction(1, q)
    display = 1 / ((1 + one_q + one_q**2) * (1 + one_q**2)) - 2 * one_q**2 / (1 - one_q) ** 2
    assert display == Fraction(3364, 4275)  # = 2401/2850 - 1/18
    assert display > 1 - Fraction(3, 2 * q)
    # it is the relaxed bound minus its (1 + q^(-d/2)) sharpening
    rep = bounds.bound_orthogonal(1, 1, 1, 1, 1, q)
    qd = Fraction(1, q**2)
    assert rep.relaxed_bound - exactnum.bq(q, 2, 2) * qd == display


def test_orthogonal_exceptions_are_exactly_the_failures():
    failing = set()
    for q in (2, 3, 4, 5):
        for m1 in range(1, 7):
            for m2 in range(1, m1 + 1):
                for eps in (1, -1):
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            rep = bounds.bound_orthogonal(eps, s1, s2, m1, m2, q)
                            if not rep.passed:
                                failing.add((q, m2, m1))
    assert failing == set(bounds.THEOREM["orthogonal"].exceptions)


def test_bound_symplectic():
    rep = bounds.bound_symplectic(1, 1, 2)
    assert rep.lower_bound == surd(Fraction(13, 35))
    assert rep.threshold == Fraction(2, 7)
    assert rep.passed
    for q in (2, 3, 4):
        for m1 in range(1, 9):
            for m2 in range(1, m1 + 1):
                if m1 + m2 > 9:
                    continue
                assert bounds.bound_symplectic(m1, m2, q).passed


def test_bounds_reject_q_not_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        bounds.bound_symplectic(1, 1, 6)
    with pytest.raises(ValueError, match="prime power"):
        bounds.bound_orthogonal(1, 1, 1, 1, 1, 6)
    with pytest.raises(ValueError, match="prime power"):
        bounds.bound_unitary(2, 1, 10)


def test_symplectic_oracle_beats_bound():
    spform = forms.standard_form("symplectic", 4, 2)
    y = oracle.build_ysets(spform, 2)[None]
    rep = oracle.count_complementary(y, y)
    formula = bounds.bound_symplectic(1, 1, 2)
    assert compare(formula.lower_bound, rep.proportion) <= 0


def test_bound_unitary_thresholds():
    rep = bounds.bound_unitary(1, 1, 2)
    assert rep.threshold == Fraction(1, 2)
    assert rep.passed and rep.tight
    rep = bounds.bound_unitary(3, 1, 2)
    assert rep.threshold == 1 - Fraction(3, 2 * 4)
    rep = bounds.bound_unitary(2, 2, 3)
    assert rep.threshold == 1 - Fraction(63, 50 * 9)


def test_unitary_c1():
    assert bounds.unitary_c1(1, 2) == 2
    assert bounds.unitary_c1(1, 3) == Fraction(3, 2)
    assert bounds.unitary_c1(2, 2) == Fraction(10, 7)
    for q in exactnum.prime_powers_upto(9):
        for e1 in range(1, 41):
            c1 = bounds.unitary_c1(e1, q)
            if (e1, q) == (1, 2):
                assert c1 == 2
            else:
                assert c1 <= Fraction(3, 2)


def test_bq_neg_estimate_sweep():
    # B_{-q}(e1, e2) <= (1 + 1/q) / ((1 - q^-4)(1 - q^-6)) on the swept range
    for q in exactnum.prime_powers_upto(9):
        cap = (1 + Fraction(1, q)) / ((1 - Fraction(1, q**4)) * (1 - Fraction(1, q**6)))
        for e1 in range(2, 9):
            for e2 in range(2, e1 + 1):
                assert exactnum.bq(-q, e1, e2) <= cap


def test_bq_monotone_on_swept_range():
    # decreasing in the second argument, checked on the swept range only
    for q in (2, 3, 4, 5):
        for m1 in range(1, 8):
            values = [exactnum.bq(q * q, m1, m2) for m2 in range(0, m1 + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_tail_checks_pass():
    assert all(t.passed for t in bounds.orthogonal_tail_checks())
    assert all(t.passed for t in bounds.symplectic_tail_checks())
    assert all(t.passed for t in bounds.unitary_tail_checks())


def test_verify_symplectic_and_unitary():
    rs = sweep.verify_theorem("symplectic")
    assert rs.passed
    assert len(rs.bound_reports) == 3 * len(
        [(m1, m2) for m1 in range(1, 10) for m2 in range(1, m1 + 1) if m1 + m2 <= 9]
    )
    ru = sweep.verify_theorem("unitary")
    assert ru.passed


def test_verify_orthogonal_closed_form_only():
    rep = sweep.verify_theorem("orthogonal", run_oracle=False)
    assert rep.passed
    assert len(rep.bound_reports) == 4 * 21 * 8
    with pytest.raises(ValueError):
        sweep.verify_theorem("elliptic")


def test_verify_fails_a_listed_exception_that_passes_in_closed_form(monkeypatch):
    # each listed orthogonal tuple (q, m2, m1) misses its closed form for
    # some of its 8 sign triples, so the list is not stale ...
    misses = Counter(
        (r.q, r.e2 // 2, r.e1 // 2)
        for r in sweep.verify_theorem("orthogonal", run_oracle=False).bound_reports
        if not r.passed
    )
    assert misses == {
        (2, 1, 1): 7, (2, 1, 2): 6, (2, 2, 2): 3, (2, 1, 3): 2,
        (3, 1, 1): 7, (4, 1, 1): 1, (5, 1, 1): 1,
    }
    # ... and listing (2, 2, 3), which passes for every sign, fails the sweep
    fam = bounds.THEOREM["orthogonal"]
    stale = fam._replace(exceptions=(*fam.exceptions, (2, 2, 3)))
    monkeypatch.setitem(bounds.THEOREM, "orthogonal", stale)
    rep = sweep.verify_theorem("orthogonal", run_oracle=False)
    assert rep.failures == ["listed exception passes in closed form: orthogonal q=2 e1=6 e2=4"]


def test_verify_fails_a_count_that_disagrees_with_its_perp_dual(capsys, monkeypatch):
    # perp duality: P(e1, e2; s1, s2) = P(e1, e2; eps s2, eps s1).  One count of
    # O+(8, 2) at (6, 2), signs (+, -), nudged off its dual (-, +) but kept
    # above its threshold, fails verify on the duality check alone
    count_case = oracle.count_case

    def nudged(form, e1, e2, cases, *args):
        reps = count_case(form, e1, e2, cases, *args)
        if (form.d, form.q, form.eps, e1) == (8, 2, 1, 6):
            assert cases[1][:2] == (1, -1)
            reps[1] = reps[1]._replace(proportion=reps[1].proportion + Fraction(1, 10**9))
        return reps

    monkeypatch.setattr(oracle, "count_case", nudged)
    code = cli.main(["verify", "--family", "orthogonal"])
    lines = capsys.readouterr().out.splitlines()
    case = "{'kind': 'orthogonal', 'q': 2, 'd': 8, 'e1': 6, 'e2': 2, 'eps': '+', "
    minus_plus, plus_minus = (case + f"'sigma1': '{a}', 'sigma2': '{b}'}}" for a, b in ("-+", "+-"))
    assert code == 1
    assert [line for line in lines if "FAILURE" in line] == [
        f"  FAILURE: oracle duality failed: {minus_plus} against {plus_minus}"
    ]


# the memo caches of the closed-form sweep: the bq kernel and the sign-free relaxed term
SWEEP_CACHES = (exactnum.bq, bounds._relaxed_orthogonal)


@pytest.mark.parametrize("family", sweep.GRIDS)
def test_sweep_reports_equal_with_cold_and_warm_caches(family):
    for cache in SWEEP_CACHES:
        cache.cache_clear()
    cold = sweep.verify_theorem(family, run_oracle=False)
    filled = exactnum.bq.cache_info()
    warm = sweep.verify_theorem(family, run_oracle=False)
    assert exactnum.bq.cache_info().hits > filled.hits  # the warm sweep read the cache
    assert warm == cold
    assert warm.passed


def test_sweep_calls_each_public_bound_once_per_tuple_and_sign_triple(monkeypatch):
    # the benchmark tracer counts bounds.closed_form_tuples by wrapping these
    # three module attributes, so every closed-form report must pass through
    # one of them by its module name
    calls = Counter()
    for name in ("bound_orthogonal", "bound_symplectic", "bound_unitary"):
        fn = getattr(bounds, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(bounds, name, counted)
    reports = {f: sweep.verify_theorem(f, run_oracle=False).bound_reports for f in sweep.GRIDS}
    assert calls == {
        "bound_orthogonal": 8 * len(sweep.GRIDS["orthogonal"]),
        "bound_symplectic": len(sweep.GRIDS["symplectic"]),
        "bound_unitary": len(sweep.GRIDS["unitary"]),
    }
    assert sum(calls.values()) == sum(map(len, reports.values())) == 1036
