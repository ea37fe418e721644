"""Distinct eigenvalues of the complementary-subspace bipartite graph.

The graph on (e1-subspaces) u (e2-subspaces) of (F_q)^(e1+e2), with adjacency
= trivial intersection, has distinct eigenvalues +-q^(m_j) for j = 0..e2.
This module computes the exponents m_j twice: from the closed form

    m_j = e1*e2 - j(d+1-j)/2,   d = e1 + e2,

and independently through the symmetric-group character route (two-row
characters, transposition character ratios, the longest-word length of the
parabolic factor).  The two must agree exactly; downstream code treats that
agreement as a self-check.

Exponents are half-integers (d odd makes j(d+1-j) odd for some j), stored as
an exact twice-the-value integer, never as floats.  Multiplicities are out of
scope on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .exactnum import prime_power


class HalfInteger(NamedTuple):
    """An exact n/2; `twice` is n."""

    twice: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __str__(self):
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


class TwoRowPartition(NamedTuple("TwoRowPartition", [("d", int), ("j", int)])):
    """The partition [d - j, j] of d (j = 0 gives the one-row [d])."""

    __slots__ = ()

    def __new__(cls, d: int, j: int):
        if not 0 <= j <= d - j:
            raise ValueError(f"[{d - j}, {j}] is not a partition")
        return super().__new__(cls, d, j)

    @property
    def parts(self) -> tuple:
        return (self.d - self.j, self.j) if self.j else (self.d,)


class SpectrumResult(NamedTuple):
    e1: int
    e2: int
    exponents: tuple  # HalfInteger m_0 > m_1 > ... > m_{e2}

    def eigenvalue_squared(self, q: int, j: int) -> int:
        """q^(2 m_j), always a positive integer."""
        return q ** self.exponents[j].twice

    def degree(self, q: int) -> int:
        """The regular degree q^(e1*e2) == q^(m_0)."""
        return q ** (self.e1 * self.e2)


def _check_dims(e1: int, e2: int):
    if e2 < 1:
        raise ValueError(f"need e2 >= 1, got {e2}")
    if e2 > e1:
        raise ValueError(f"need e1 >= e2 (the graph is symmetric; swap first), got {e1} < {e2}")


def eigen_exponents(e1: int, e2: int) -> SpectrumResult:
    """Closed form: m_j = e1*e2 - j(d+1-j)/2 for j = 0..e2."""
    _check_dims(e1, e2)
    d = e1 + e2
    exps = tuple(HalfInteger(2 * e1 * e2 - j * (d + 1 - j)) for j in range(e2 + 1))
    if any(a <= b for a, b in zip(exps, exps[1:])):
        raise ArithmeticError(f"exponents {exps} are not strictly decreasing")
    return SpectrumResult(e1, e2, exps)


def a_invariants(mu: TwoRowPartition) -> tuple:
    """(a, a*) with a = sum (i-1) mu_i and a* = sum C(mu_i, 2)."""
    return a_of_parts(mu.parts), sum(comb(m, 2) for m in mu.parts)


def a_of_parts(parts) -> int:
    return sum(i * m for i, m in enumerate(parts))


def char_ratio(mu: TwoRowPartition) -> Fraction:
    """chi_mu(transposition) / chi_mu(1) = (a*(mu) - a(mu)) / C(d, 2)."""
    if mu.d < 2:
        raise ValueError(f"need d >= 2, got {mu.d}")
    a, a_star = a_invariants(mu)
    return Fraction(a_star - a, comb(mu.d, 2))


def exponent_e_mu(d: int, j: int) -> int:
    """C(d,2) (1 + char_ratio([d-j, j])), simplified to d^2 - d + j^2 - jd - j."""
    if not 0 <= 2 * j <= d:
        raise ValueError(f"need 0 <= j <= d/2, got j={j}, d={d}")
    return d * d - d + j * j - j * d - j


def longest_word_length(e1: int, e2: int) -> int:
    """Length of the longest word in Sym(e1) x Sym(e2): C(e1,2) + C(e2,2)."""
    return comb(e1, 2) + comb(e2, 2)


def pieri_constituents(e1: int, e2: int) -> list:
    """Two-row constituents [d-j, j], j = 0..e2, of the induced character."""
    _check_dims(e1, e2)
    d = e1 + e2
    return [TwoRowPartition(d, j) for j in range(e2 + 1)]


def eigen_exponents_via_characters(e1: int, e2: int) -> SpectrumResult:
    """Character route: m_j = e_mu/2 - ell over the Pieri constituents."""
    _check_dims(e1, e2)
    d = e1 + e2
    ell = longest_word_length(e1, e2)
    exps = []
    for mu in pieri_constituents(e1, e2):
        e_mu = exponent_e_mu(d, mu.j)
        if e_mu != comb(d, 2) * (1 + char_ratio(mu)):
            raise ArithmeticError(f"e_mu = {e_mu} disagrees with the character ratio of {mu}")
        exps.append(HalfInteger(e_mu - 2 * ell))
    return SpectrumResult(e1, e2, tuple(exps))


def eigenvalue_str(q: int, m: HalfInteger) -> str:
    """Render q^m, exact where possible (q a square makes q^(1/2) an integer)."""
    if m.is_integer:
        return str(q ** (m.twice // 2))
    pp = prime_power(q)
    if pp.k % 2 == 0:
        root = pp.p ** (pp.k // 2)
        return str(root**m.twice)
    whole = q ** ((m.twice - 1) // 2) if m.twice >= 1 else Fraction(1, q ** ((1 - m.twice) // 2))
    return f"{whole}*sqrt({q})"
