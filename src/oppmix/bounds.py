"""Closed-form density bounds, evaluated exactly, and their tail certificates.

THEOREM is the one table of the theorem's cases: per family, its form kind,
the signs and parity a case needs, each branch's threshold 1 - c/q^k with
its formula id, and the exception tuples the oracle must count exactly.
One builder, _report, reads the case from it and makes every BoundReport;
each family's function supplies only its densities, value and extra fields.

Each value is an exactnum Surd (the mixing-lemma bound has a square root),
and every verdict is one exactnum.compare, never floating point: the margins
at q = 2 are thin enough that a rounding error could flip a verdict.

Analytic tail facts about the infinite products omega_q(inf) are replaced by
finite rational certificates: omega_tail_lower(q, e) is a rational lower
bound for every omega_q(e') with e' >= e (and for the infinite product), via
the Weierstrass product inequality.  Displays over "all q" become checks over
prime powers up to TAIL_Q_LIMIT, reported as finite verifications.

This layer knows no brute force: the sweeps that send exception tuples to the
enumeration oracle live in `sweep`.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .exactnum import (
    HERMITIAN,
    MINUS,
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
    Surd,
    bq,
    compare,
    lambda_factor,
    parse_sign,
    prime_power,
    prime_powers_upto,
    sign_char,
    surd,
)

CONTAINMENT = "unitary-e2-1-containment"
# The tail displays are checked for every prime power up to this.  At q = 97 the
# omega tail's denominator has 4,260 digits, under CPython's default limit of
# 4,300 for str() of an int; q = 103 would need 4,316 (see README).
TAIL_Q_LIMIT = 97


# -- the theorem's cases -------------------------------------------------------


class Case(NamedTuple):
    """A branch of a family's theorem: the proportion is >= 1 - c/q^k
    wherever when(e1, e2, q), with e1 >= e2, holds (None: everywhere)."""

    formula_id: str
    c: Fraction
    k: int
    when: Callable[[int, int, int], bool] | None = None

    def threshold(self, q: int) -> Fraction:
        return 1 - self.c / q**self.k


class Family(NamedTuple):
    kind: str  # the form kind whose subspaces the oracle counts
    signed: bool  # needs eps, sigma1 and sigma2
    even: bool  # e1, e2 even; the bounds take m_i = e_i / 2
    cases: tuple  # first match wins; the last covers the large dims the tails settle
    exceptions: tuple = ()  # (q, m2, m1), m_i = e_i / 2, that the closed form misses

    def case(self, e1: int, e2: int, q: int) -> Case:
        prime_power(q)  # raises ValueError unless q is a prime power
        e1, e2 = max(e1, e2), min(e1, e2)
        return next(c for c in self.cases if c.when is None or c.when(e1, e2, q))

    def threshold(self, e1: int, e2: int, q: int) -> Fraction:
        return self.case(e1, e2, q).threshold(q)

    def is_exception(self, e1: int, e2: int, q: int) -> bool:
        """Whether the closed form misses (e1, e2, q), so the oracle must count it."""
        return (q, min(e1, e2) // 2, max(e1, e2) // 2) in self.exceptions


THEOREM = {
    "orthogonal": Family(
        ORTHOGONAL,
        signed=True,
        even=True,
        cases=(Case("orthogonal-two-alpha-mixing", Fraction(3, 2), 1),),
        exceptions=((2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 2)),
    ),
    "symplectic": Family(
        SYMPLECTIC,
        signed=False,
        even=True,
        cases=(Case("symplectic-display", Fraction(10, 7), 1),),
    ),
    "unitary": Family(
        HERMITIAN,
        signed=False,
        even=False,
        cases=(
            # the mixing route is weak at e2 = 1: the containment
            # overestimate 1 - c1/q^2 stands in, tight at (1, 1, 2)
            Case(CONTAINMENT, Fraction(2), 2, lambda e1, e2, q: (e1, e2, q) == (1, 1, 2)),
            Case(CONTAINMENT, Fraction(3, 2), 2, lambda e1, e2, q: e2 == 1),
            Case("unitary-display", Fraction(63, 50), 2),
        ),
    ),
}


def omega_tail_lower(base: int, e: int) -> Fraction:
    """Rational lower bound for omega_base(e') valid for every e' >= e.

    omega_base(e') = omega_base(e) * prod_{i>e..e'} (1 - base^-i) and the
    Weierstrass inequality bounds the trailing product below by
    1 - sum_{i>e} base^-i = 1 - base^-e/(base-1).  With m = base^e (base - 1)
    and omega_base(e) = n/d as exactnum.omega writes it, the bound is
    n (m - 1) / (d m), one Fraction, reduced once.
    """
    if base < 2:
        raise ValueError("positive base >= 2 only")
    m = base**e * (base - 1)
    n, d = prod(base**i - 1 for i in range(1, e + 1)), base ** (e * (e + 1) // 2)
    return Fraction(n * (m - 1), d * m)


# -- bound formulas ----------------------------------------------------------


def mixing_lower_bound(alpha1: Fraction, alpha2: Fraction, e1: int, e2: int, q: int) -> Surd:
    """q^(e1 e2)/[d choose e1]_q * (1 - sqrt((1/a1 - 1)(1/a2 - 1)) q^(-d/2)).

    With a_i = n_i/D_i the radicand is one Fraction, (D1 - n1)(D2 - n2) / (n1 n2 q^d).
    """
    (n1, den1), (n2, den2) = alpha1.as_integer_ratio(), alpha2.as_integer_ratio()
    if not (0 < n1 <= den1 and 0 < n2 <= den2):
        raise ValueError(f"densities must be in (0, 1], got {alpha1}, {alpha2}")
    k_ratio = bq(q, e1, e2)
    return surd(k_ratio, -k_ratio, Fraction((den1 - n1) * (den2 - n2), n1 * n2 * q ** (e1 + e2)))


def corollary_bound(alpha: Fraction, d: int, q: int) -> Surd:
    """(1 - 3/(2q)) (1 - (1/alpha - 1) q^(-d/2))."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"density must be in (0, 1], got {alpha}")
    lead = 1 - Fraction(3, 2 * q)
    return surd(lead, -lead * (1 / alpha - 1), Fraction(1, q**d))


def alpha_orthogonal(eps: int, sigma: int, m1: int, m2: int, q: int) -> Fraction:
    """Density of type-sigma non-degenerate 2m1-spaces among all 2m1-spaces.

    For the e2 side call with (m2, m1) swapped.
    """
    return lambda_factor(sigma, eps, m1, m2, q) * alpha_symplectic(m1, m2, q)


def alpha_symplectic(m1: int, m2: int, q: int) -> Fraction:
    return bq(q, 2 * m1, 2 * m2) / bq(q * q, m1, m2)


def alpha_unitary(e1: int, e2: int, q: int) -> Fraction:
    if e1 < 1 or e2 < 1:
        raise ValueError(f"need e1, e2 >= 1, got {e1}, {e2}")
    return bq(q * q, e1, e2) / bq(-q, e1, e2)


class BoundReport(NamedTuple):
    family: str
    q: int
    e1: int
    e2: int
    alpha1: Fraction | None
    alpha2: Fraction | None
    lower_bound: Surd
    threshold: Fraction
    passed: bool
    tight: bool
    formula_id: str
    eps: int | None = None  # the signs, for families that need them
    sigma1: int | None = None
    sigma2: int | None = None
    relaxed_bound: Fraction | None = None
    note: str | None = None

    def label(self) -> str:
        bits = [self.family, f"q={self.q}", f"e1={self.e1}", f"e2={self.e2}"]
        if self.eps is not None:
            bits.append(f"eps={sign_char(self.eps)}")
        if self.sigma1 is not None:
            bits.append(f"sigma1={sign_char(self.sigma1)}")
        if self.sigma2 is not None:
            bits.append(f"sigma2={sign_char(self.sigma2)}")
        return " ".join(bits)


def _report(family, case: Case, threshold, e1, e2, q, alphas, value: Surd, **extra) -> BoundReport:
    """The one BoundReport builder: case (THEOREM's for e1, e2, q) gives the formula
    id, threshold is its threshold at q, compare(value, threshold) the verdict;
    extra the optional fields."""
    verdict = compare(value, threshold)
    passed, tight = verdict >= 0, verdict == 0
    return BoundReport(
        family, q, e1, e2, *alphas, value, threshold, passed, tight, case.formula_id, **extra
    )


class OrthogonalTerms(NamedTuple):
    """What the eight sign triples of one orthogonal (m1, m2, q) share."""

    case: Case  # THEOREM's
    threshold: Fraction
    alpha1: dict  # (eps, sigma1) -> the density of the type-sigma1 2m1-spaces
    alpha2: dict  # (eps, sigma2) -> the density of the type-sigma2 2m2-spaces
    relaxed: Fraction  # the relaxed value, which no sign enters


def orthogonal_terms(m1: int, m2: int, q: int) -> OrthogonalTerms:
    """The case, threshold, densities and relaxed value of (m1, m2, q), each computed once."""
    case = THEOREM["orthogonal"].case(2 * m1, 2 * m2, q)
    signs = [(eps, sigma) for eps in (PLUS, MINUS) for sigma in (PLUS, MINUS)]
    alpha1 = {(eps, sigma): alpha_orthogonal(eps, sigma, m1, m2, q) for eps, sigma in signs}
    alpha2 = {(eps, sigma): alpha_orthogonal(eps, sigma, m2, m1, q) for eps, sigma in signs}
    qd = Fraction(q) ** -(m1 + m2)
    lam = lambda_factor(MINUS, PLUS, m1, m2, q)
    relaxed = bq(q, 2 * m1, 2 * m2) * (1 + qd) - bq(q * q, m1, m2) * qd / lam
    return OrthogonalTerms(case, case.threshold(q), alpha1, alpha2, relaxed)


def bound_orthogonal(
    eps: int, sigma1: int, sigma2: int, m1: int, m2: int, q: int, terms: OrthogonalTerms | None = None
) -> BoundReport:
    """Two-density mixing bound vs 1 - 3/(2q), plus the relaxed uniform form.

    The relaxed value replaces both densities by the worst one (the lambda
    factor at (-, +)); it is weaker but free of the cross term, which is what
    the tail analysis wants, and is reported alongside for reference.  terms
    is orthogonal_terms(m1, m2, q), computed here unless a caller that runs
    the other sign triples passes it in.
    """
    eps, sigma1, sigma2 = parse_sign(eps), parse_sign(sigma1), parse_sign(sigma2)
    e1, e2 = 2 * m1, 2 * m2
    terms = terms or orthogonal_terms(m1, m2, q)
    a1, a2 = terms.alpha1[eps, sigma1], terms.alpha2[eps, sigma2]
    exact = mixing_lower_bound(a1, a2, e1, e2, q)
    extra = dict(eps=eps, sigma1=sigma1, sigma2=sigma2, relaxed_bound=terms.relaxed)
    if THEOREM["orthogonal"].is_exception(e1, e2, q):
        extra["note"] = "exception tuple: dispatch to the enumeration oracle (`count`)"
    return _report("orthogonal", terms.case, terms.threshold, e1, e2, q, (a1, a2), exact, **extra)


def _collapse(exact: Surd, display: Fraction) -> Surd:
    """exact, once checked to equal the display: equal densities drop the radical."""
    if exact != surd(display):
        raise ArithmeticError(f"uniform-density bound {exact} does not collapse to {display}")
    return exact


def bound_symplectic(m1: int, m2: int, q: int) -> BoundReport:
    """B_q(e1,e2)(1 + q^(-d/2)) - B_{q^2}(m1,m2) q^(-d/2) vs 1 - 10/(7q)."""
    e1, e2 = 2 * m1, 2 * m2
    case = THEOREM["symplectic"].case(e1, e2, q)
    a = alpha_symplectic(m1, m2, q)
    qd = Fraction(q) ** -(m1 + m2)
    display = bq(q, e1, e2) * (1 + qd) - bq(q * q, m1, m2) * qd
    exact = _collapse(mixing_lower_bound(a, a, e1, e2, q), display)
    return _report("symplectic", case, case.threshold(q), e1, e2, q, (a, a), exact)


def unitary_c1(e1: int, q: int) -> Fraction:
    """(1 + q^-e1) / (1 - q^-(1+e1)), the e2 = 1 overestimate constant:
    q (q^e1 + 1) / (q^(e1+1) - 1), one Fraction."""
    return Fraction(q * (q**e1 + 1), q ** (e1 + 1) - 1)


def bound_unitary(e1: int, e2: int, q: int) -> BoundReport:
    """Hermitian-space bound, on the branch THEOREM picks for (e1, e2, q).

    e2 >= 2 uses the mixing display over F_{q^2}; e2 = 1 uses the
    containment overestimate 1 - c1/q^2, because the mixing route is weak there.
    """
    e1, e2 = max(e1, e2), min(e1, e2)
    case = THEOREM["unitary"].case(e1, e2, q)
    a = alpha_unitary(e1, e2, q)
    if case.formula_id == CONTAINMENT:
        value = surd(1 - unitary_c1(e1, q) / q**2)
    else:
        qd = Fraction(q) ** -(e1 + e2)
        display = bq(q * q, e1, e2) * (1 + qd) - bq(-q, e1, e2) * qd
        value = _collapse(mixing_lower_bound(a, a, e1, e2, q * q), display)
    return _report("unitary", case, case.threshold(q), e1, e2, q, (a, a), value)


def bound_case(
    family: str, e1: int, e2: int, q: int, eps=None, sigma1=None, sigma2=None, terms=None
) -> BoundReport:
    """The closed-form report for one case, with dimensions e1, e2 as counted;
    terms, for the orthogonal family, as bound_orthogonal takes it."""
    if family == "orthogonal":
        return bound_orthogonal(eps, sigma1, sigma2, e1 // 2, e2 // 2, q, terms)
    if family == "symplectic":
        return bound_symplectic(e1 // 2, e2 // 2, q)
    return bound_unitary(e1, e2, q)


# -- finite verification of the analytic tails --------------------------------


class TailCheck(NamedTuple):
    name: str
    q: int
    value: Fraction
    threshold: Fraction
    passed: bool


def _tail(name, q, value, threshold) -> TailCheck:
    return TailCheck(name, q, value, threshold, value > threshold)


def orthogonal_tail_checks() -> list:
    """The displays that settle the orthogonal theorem off the swept range."""
    threshold = THEOREM["orthogonal"].cases[-1].threshold

    def lead(q):  # the infinite-product lower bound the tail displays substitute in
        return 1 - Fraction(1, q) - Fraction(1, q**2) + Fraction(1, q**5)

    def tail(q, m):  # lead minus the cross term of the dimensions d >= 2(m + 1)
        x = Fraction(1, q)
        return lead(q) - 2 * (1 + x**m * x) / ((1 - x) * (1 - x**m)) * bq(q * q, 1, m) * x**m * x

    qs = prime_powers_upto(TAIL_Q_LIMIT)
    checks = [_tail("omega-inf-lower", q, omega_tail_lower(q, 64), lead(q)) for q in qs]
    for q in qs[qs.index(7) :]:
        x = Fraction(1, q)
        val = 1 / ((1 + x + x**2) * (1 + x**2)) - 2 * x**2 / (1 - x) ** 2
        checks.append(_tail("orthogonal-q>=7-m1=m2=1", q, val, threshold(q)))
        checks.append(_tail("orthogonal-q>=7-d>=6", q, tail(q, 2), threshold(q)))
    checks += [_tail("orthogonal-q<=5-d>=14", q, tail(q, 6), threshold(q)) for q in (2, 3, 4, 5)]
    return checks


def symplectic_tail_checks() -> list:
    threshold = THEOREM["symplectic"].cases[-1].threshold
    checks = []
    for q in prime_powers_upto(TAIL_Q_LIMIT):
        if q >= 5:
            val = 1 - Fraction(1, q) - Fraction(2, q**2)
            checks.append(_tail("symplectic-q>=5", q, val, threshold(q)))
    for q in (2, 3, 4):
        val = omega_tail_lower(q, 64) - Fraction(1, q**10)
        checks.append(_tail("symplectic-d>=20", q, val, threshold(q)))
    return checks


def unitary_tail_checks() -> list:
    threshold = THEOREM["unitary"].cases[-1].threshold

    def bneg(q):  # the B_{-q} factor that both tail displays subtract
        return (1 + Fraction(1, q)) / ((1 - Fraction(1, q**4)) * (1 - Fraction(1, q**6)))

    checks = []
    for q in prime_powers_upto(TAIL_Q_LIMIT):
        if q >= 4:
            val = 1 - Fraction(1, q**2) - Fraction(1, q**4) - bneg(q) * Fraction(1, q**4)
            checks.append(_tail("unitary-q>=4", q, val, threshold(q)))
    for q in (2, 3):
        val = omega_tail_lower(q * q, 64) - bneg(q) * Fraction(1, q**10)
        checks.append(_tail("unitary-q<=3-d>=10", q, val, threshold(q)))
    return checks
