"""Small finite fields F_q with table-driven arithmetic.

Elements are plain ints 0..q-1 encoding polynomial coordinates over F_p in
base p, low degree first (so for prime q the value is just the residue).
The inventory is fixed: the moduli below are part of the reproducibility
contract, because the element encoding -- and hence every enumeration
order downstream -- depends on them.

Every table comes straight from its definition: sums and products of
polynomials reduced by the modulus (plain arithmetic mod p when q is prime),
and negatives and inverses read off their rows.  A modulus that is not
irreducible leaves a nonzero row of the product table without a 1 and is
rejected when the field is built.

Fields of square order q = r^2 know their index-2 subfield F_r and expose
conj(x) = x^r, which is what the hermitian forms need.
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import prime_power

# Irreducible moduli, coefficients low degree first.  Prime fields get the
# decorative x+1 (arithmetic there is plain mod p).
FIXED_MODULI = {
    2: (1, 1),
    3: (1, 1),
    4: (1, 1, 1),  # x^2 + x + 1
    5: (1, 1),
    7: (1, 1),
    8: (1, 1, 0, 1),  # x^3 + x + 1
    9: (2, 2, 1),  # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 1, 1),  # x^2 + x + 2
}


class Field:
    """Immutable arithmetic tables for one F_q from the fixed inventory."""

    def __init__(self, q: int):
        if q not in FIXED_MODULI:
            raise ValueError(f"unsupported field size {q}; inventory: {sorted(FIXED_MODULI)}")
        pp = prime_power(q)
        self.p = pp.p
        self.k = pp.k
        self.q = q
        self.modulus = FIXED_MODULI[q]
        # Index-2 subfield size, when there is one (needed for conj).
        self.base = pp.p ** (pp.k // 2) if pp.k % 2 == 0 else None

        elems = range(q)
        self._add = tuple(tuple(self._poly_add(x, y) for y in elems) for x in elems)
        self._mul = tuple(tuple(self._poly_mul(x, y) for y in elems) for x in elems)
        self._neg = tuple(row.index(0) for row in self._add)
        try:
            self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])
        except ValueError:
            raise ArithmeticError(f"modulus {self.modulus} of F_{q} is reducible") from None
        if self.base is not None:
            conj = list(elems)
            for _ in range(self.base - 1):
                conj = [row[c] for row, c in zip(self._mul, conj)]
            self._conj = tuple(conj)
        else:
            self._conj = None

    def _poly_add(self, x: int, y: int) -> int:
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.k):
            out += ((x % p + y % p) % p) * shift
            x //= p
            y //= p
            shift *= p
        return out

    def _poly_mul(self, x: int, y: int) -> int:
        p, k = self.p, self.k
        xd = [(x // p**i) % p for i in range(k)]
        yd = [(y // p**i) % p for i in range(k)]
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        # reduce by the monic modulus: x^k = -(lower part)
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return sum(prod[i] * p**i for i in range(k))

    # -- element operations ------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def sub(self, x: int, y: int) -> int:
        return self._add[x][self._neg[y]]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[x]

    def conj(self, x: int) -> int:
        """x^r, r = sqrt(q): the involution of F_q over its subfield F_r."""
        if self._conj is None:
            raise ValueError(f"F_{self.q} is not a declared quadratic extension")
        return self._conj[x]

    def scale(self, c: int, u) -> list:
        """c u, entry by entry, from one row of the multiplication table."""
        row = self._mul[c]
        return [row[x] for x in u]

    def sub_scaled(self, u, c: int, v) -> list:
        """u - c v, entry by entry, from table rows."""
        add, row = self._add, self._mul[self._neg[c]]
        return [add[a][row[b]] for a, b in zip(u, v)]

    def elements(self) -> range:
        return range(self.q)

    def dot(self, u, v) -> int:
        """Sum of u_i * v_i."""
        add_row = self._add
        mul = self._mul
        acc = 0
        for a, b in zip(u, v):
            acc = add_row[acc][mul[a][b]]
        return acc

    def __repr__(self):
        return f"Field({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Shared immutable Field instance for q in the fixed inventory."""
    return Field(q)
