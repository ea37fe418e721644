"""Small finite fields F_q with table-driven arithmetic.

Elements are plain ints 0..q-1 encoding polynomial coordinates over F_p in
base p, low degree first (so for prime q the value is just the residue).
The inventory is fixed: the moduli below are part of the reproducibility
contract, because the element encoding -- and hence every enumeration
order downstream -- depends on them.

Fields of square order know their index-2 subfield and expose conj(x) = x^q,
which is what the hermitian forms need.
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

        p, k = self.p, self.k
        if k == 1:
            mul = [[(x * y) % p for y in range(q)] for x in range(q)]
            add = [[(x + y) % p for y in range(q)] for x in range(q)]
        else:
            mul = [[self._poly_mul(x, y) for y in range(q)] for x in range(q)]
            add = [[self._poly_add(x, y) for y in range(q)] for x in range(q)]
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(next(y for y in range(q) if self._add[x][y] == 0) for x in range(q))

        # exp/log for the multiplicative group, from the least generator.
        g = self._find_generator()
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul[x][g]
        if x != 1:
            raise ArithmeticError(f"generator {g} of F_{q}* does not have order {q - 1}")
        self.exp = tuple(exp)
        self.log = tuple(log)
        self._inv = tuple(
            [0] + [self.exp[(q - 1 - self.log[x]) % (q - 1)] for x in range(1, q)]
        )
        if self.base is not None:
            b = self.base
            self._conj = tuple(
                [0] + [self.exp[(self.log[x] * b) % (q - 1)] for x in range(1, q)]
            )
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

    def _find_generator(self) -> int:
        n = self.q - 1
        for g in range(1, self.q):
            x = g
            order = 1
            while x != 1:
                x = self._mul[x][g]
                order += 1
            if order == n:
                return g
        raise ArithmeticError(f"no generator of F_{self.q}* found")

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
        """x^q for the quadratic extension F_{q^2} over F_q."""
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
