"""Exact arithmetic kernel: q-analogs, classical group orders, subspace counts,
and surds a + b*sqrt(n) with their exact comparison against a rational.

Everything here is integer or Fraction arithmetic on arbitrary-precision
values; no floats, apart from Surd.approx's display value.  Signs (the +/-
type markers) are carried as the integers +1 and -1 so they can be multiplied.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from typing import NamedTuple

# the classical form kinds; forms re-exports them
ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"

PLUS = 1
MINUS = -1

_SIGN_CHARS = {"+": PLUS, "-": MINUS, "plus": PLUS, "minus": MINUS, "1": PLUS, "-1": MINUS}


def parse_sign(s) -> int:
    """Accept '+', '-', +1, -1 and return +1 or -1."""
    if s in (PLUS, MINUS):
        return s
    try:
        return _SIGN_CHARS[str(s).strip().lower()]
    except KeyError:
        raise ValueError(f"not a sign: {s!r}") from None


def sign_char(sigma: int) -> str:
    return "+" if sigma == PLUS else "-"


class PrimePower(NamedTuple("PrimePower", [("p", int), ("k", int), ("q", int)])):
    """q = p^k with p prime and k >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, k: int, q: int):
        if p < 2 or not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1 or p**k != q:
            raise ValueError(f"q = {q} != {p}^{k}")
        return super().__new__(cls, p, k, q)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> PrimePower:
    """Factor q as p^k or raise ValueError.  p is q's least factor above 1:
    trial division up to isqrt(q) finds it, or else it is q, a prime."""
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            break
    else:
        p = q
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return PrimePower(p, k, q)


def is_prime_power(q: int) -> bool:
    try:
        prime_power(q)
        return True
    except ValueError:
        return False


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending."""
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of an a-dimensional space over F_q.

    Computed as prod_{i=1}^{b} (q^(a-i+1) - 1) / prod_{i=1}^{b} (q^i - 1), one
    exact division; a remainder raises InexactDivisionError.
    """
    if b < 0 or a < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    num = prod(q ** (a - i + 1) - 1 for i in range(1, b + 1))
    den = prod(q**i - 1 for i in range(1, b + 1))
    return _exact_div(num, den, f"[{a}, {b}]_{q}")


def omega(base: int, e: int) -> Fraction:
    """prod_{i=1}^{e} (1 - base^(-i)) = prod (base^i - 1) / base^(e(e+1)/2), one Fraction.

    base may be negative (|base| >= 2); the signed-base variant shows up in
    the unitary counts, where consecutive factors pair up to stay positive.
    """
    if abs(base) < 2 or e < 0:
        raise ValueError(f"need |base| >= 2 and e >= 0, got base {base}, e = {e}")
    return Fraction(prod(base**i - 1 for i in range(1, e + 1)), base ** (e * (e + 1) // 2))


@lru_cache(maxsize=None)
def bq(base: int, e1: int, e2: int) -> Fraction:
    """omega(base, e1) * omega(base, e2) / omega(base, e1 + e2), one Fraction.

    That is base^(e1 e2) prod_{i<=k} (base^i - 1) / prod_{i<=k} (base^(e1+e2-i+1) - 1)
    with k = min(e1, e2), for negative bases too; for base q >= 2 it
    satisfies [e1+e2 choose e1]_q = q^(e1*e2) / bq.
    """
    if abs(base) < 2 or min(e1, e2) < 0:
        raise ValueError(f"need |base| >= 2 and e1, e2 >= 0, got base {base}, {e1}, {e2}")
    k, n = min(e1, e2), e1 + e2
    num = base ** (e1 * e2) * prod(base**i - 1 for i in range(1, k + 1))
    return Fraction(num, prod(base ** (n - i + 1) - 1 for i in range(1, k + 1)))


def group_order_go(m: int, sigma: int, q: int) -> int:
    """|GO^sigma_{2m}(q)| = 2 q^(m(m-1)) (q^m - sigma) prod_{i=1}^{m-1} (q^2i - 1)."""
    sigma = parse_sign(sigma)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return 2 * q ** (m * (m - 1)) * (q**m - sigma) * prod(q ** (2 * i) - 1 for i in range(1, m))


def group_order_sp(m: int, q: int) -> int:
    """|Sp_{2m}(q)| = q^(m^2) prod_{i=1}^{m} (q^2i - 1)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def group_order_gu(d: int, q: int) -> int:
    """|GU_d(q)| = q^(d(d-1)/2) prod_{i=1}^{d} (q^i - (-1)^i)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return q ** (d * (d - 1) // 2) * prod(q**i - (-1) ** i for i in range(1, d + 1))


class InexactDivisionError(ArithmeticError):
    """An orbit-stabilizer division left a remainder; signals a formula bug."""


class BudgetError(RuntimeError):
    """An enumeration was larger than the configured budget."""


def _exact_div(num: int, den: int, what: str) -> int:
    quot, rem = divmod(num, den)
    if rem != 0:
        raise InexactDivisionError(f"{what}: {num} not divisible by {den}")
    return quot


def count_nondegenerate(
    kind: str, e1: int, e2: int, q: int, eps: int | None = None, sigma1: int | None = None
) -> int:
    """Number of non-degenerate e1-subspaces of the classical (e1+e2)-space.

    Orbit-stabilizer count: |isometry group of V| / |stabilizer of a fixed
    subspace|.  In the orthogonal case the subspace has type sigma1 and its
    perp then has type eps*sigma1, so the stabilizer is
    GO^sigma1_e1 x GO^(eps*sigma1)_e2.
    """
    if kind == ORTHOGONAL:
        if e1 % 2 or e2 % 2 or e1 < 2 or e2 < 2:
            raise ValueError(f"orthogonal needs e1, e2 even >= 2, got {e1}, {e2}")
        eps = parse_sign(eps)
        sigma1 = parse_sign(sigma1)
        num = group_order_go((e1 + e2) // 2, eps, q)
        den = group_order_go(e1 // 2, sigma1, q) * group_order_go(e2 // 2, eps * sigma1, q)
        return _exact_div(num, den, f"orthogonal count e1={e1} e2={e2} q={q}")
    if kind == SYMPLECTIC:
        if e1 % 2 or e2 % 2 or e1 < 2 or e2 < 2:
            raise ValueError(f"symplectic needs e1, e2 even >= 2, got {e1}, {e2}")
        num = group_order_sp((e1 + e2) // 2, q)
        den = group_order_sp(e1 // 2, q) * group_order_sp(e2 // 2, q)
        return _exact_div(num, den, f"symplectic count e1={e1} e2={e2} q={q}")
    if kind == HERMITIAN:
        if e1 < 1 or e2 < 1:
            raise ValueError(f"hermitian needs e1, e2 >= 1, got {e1}, {e2}")
        num = group_order_gu(e1 + e2, q)
        den = group_order_gu(e1, q) * group_order_gu(e2, q)
        return _exact_div(num, den, f"hermitian count e1={e1} e2={e2} q={q}")
    raise ValueError(f"unknown kind {kind!r}")


def lambda_factor(sigma1: int, eps: int, m1: int, m2: int, q: int) -> Fraction:
    """(1 + sigma1 q^-m1)(1 + eps*sigma1 q^-m2) / (2 (1 + eps q^-(m1+m2))), one Fraction:
    (q^m1 + sigma1)(q^m2 + eps*sigma1) / (2 (q^(m1+m2) + eps))."""
    sigma1 = parse_sign(sigma1)
    eps = parse_sign(eps)
    if m1 < 1 or m2 < 1:
        raise ValueError(f"need m1, m2 >= 1, got {m1}, {m2}")
    return Fraction((q**m1 + sigma1) * (q**m2 + eps * sigma1), 2 * (q ** (m1 + m2) + eps))


class Surd(NamedTuple):
    """Exact a + b*sqrt(base): rational a, b and an integer base >= 0.

    Build one with surd(), which keeps the canonical form: b == 0 exactly
    when the value is rational, and then base == 0.
    """

    a: Fraction
    b: Fraction
    base: int

    # tuple order is lexicographic, not by value: order a surd with compare()
    __lt__ = __le__ = __gt__ = __ge__ = None

    def approx(self) -> float:
        x = self.a
        if self.b:
            scale = 10**40
            x += self.b * Fraction(isqrt(self.base * scale * scale), scale)
        try:
            return x.numerator / x.denominator
        except OverflowError:
            return float("inf") if x > 0 else float("-inf")

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.base})" if self.b else str(self.a)


def surd(a, b=0, rad=0) -> Surd:
    """a + b*sqrt(rad) for a rational radicand rad >= 0, in canonical form.

    rad = num/den becomes b/den * sqrt(num*den); a square radicand folds into a.
    """
    a, b, rad = Fraction(a), Fraction(b), Fraction(rad)
    if rad < 0:
        raise ValueError(f"negative radicand {rad}")
    b, base = b / rad.denominator, rad.numerator * rad.denominator
    root = isqrt(base)
    if b == 0 or root * root == base:
        return Surd(a + b * root, Fraction(0), 0)
    return Surd(a, b, base)


def compare(x: Surd, t) -> int:
    """The sign of x - t for a rational t: -1, 0 or 1, decided exactly.

    A rational x (b = 0) compares a with t.  Otherwise, with a' = a - t,
    a' + b*sqrt(base) takes the common sign of a' and b when they agree, and
    else the sign of whichever of a'^2 and b^2*base is larger.
    """
    if not x.b:
        return (x.a > t) - (x.a < t)
    a, b = x.a - t, x.b
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    gap = a * a - b * b * x.base
    return sa if gap > 0 else sb if gap < 0 else 0
