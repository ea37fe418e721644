"""Matrices and canonical subspaces over the gf fields.

A subspace is held as its reduced-row-echelon basis plus the pivot columns,
which makes equality structural and the enumeration duplicate-free.  The
enumeration order is fixed: pivot-column patterns lexicographically, then an
odometer over the free entries (row-major positions, rightmost digit fastest,
field values ascending).

Over F_2 a row is also a machine-word bitmask (bit j = coordinate j).  The
*_bits functions work on subspaces held as tuples of such rows:
subspaces_for_pattern_bits enumerates them directly, in the same canonical
order, and complementary_bits is the hot pair test.

members, points, pair_test and complement_rows are the one place that picks
a field's representation: bitmask-row tuples over F_2, Subspace objects over
every other field.  Callers that only enumerate and pair-test never branch
on q.  pair_test is one elimination per pair, for scans of one S1.  Two
subspaces meet trivially iff they share no projective point, so
complement_rows decides all of Y1 x Y2 by point incidence, one bitmask row
per S1, with no elimination per pair.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import chain, combinations, product
from typing import Callable, Iterator, NamedTuple

from .gf import Field


class BudgetError(RuntimeError):
    """An enumeration was larger than the configured budget."""


class Subspace(NamedTuple):
    d: int
    basis: tuple  # e rows, each a tuple of d field values, in RREF
    pivots: tuple  # strictly increasing pivot column indices, len e

    @property
    def e(self) -> int:
        return len(self.basis)

    def bit_rows(self) -> tuple:
        """Rows as bitmasks; only meaningful over F_2."""
        return tuple(_row_to_bits(row) for row in self.basis)


def _row_to_bits(row) -> int:
    out = 0
    for j, v in enumerate(row):
        if v:
            out |= 1 << j
    return out


# -- reduction -------------------------------------------------------------


def rref(rows, fld: Field):
    """Reduced row echelon form.

    Returns (rref_rows, pivot_cols); the rank is len(pivot_cols).  Zero rows
    are dropped.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = fld.inv(work[r][c])
        if inv != 1:
            work[r] = [fld.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                row_i = work[i]
                for j in range(c, ncols):
                    if row_r[j]:
                        row_i[j] = fld.sub(row_i[j], fld.mul(f, row_r[j]))
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(work[i]) for i in range(r)), tuple(pivots)


def rank(rows, fld: Field) -> int:
    return len(rref(rows, fld)[1])


def nullspace(rows, fld: Field, ncols: int) -> Subspace:
    """Canonical basis of {v : sum_j rows[i][j] v_j = 0 for all i}."""
    red, pivots = rref(rows, fld) if rows else ((), ())
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = fld.neg(red[i][f])
        basis.append(v)
    if not basis:
        return Subspace(ncols, (), ())
    red2, piv2 = rref(basis, fld)
    return Subspace(ncols, red2, piv2)


# -- enumeration -----------------------------------------------------------


def subspaces_for_pattern(d: int, pattern, fld: Field) -> Iterator[Subspace]:
    """All subspaces whose RREF pivot columns equal `pattern`, odometer order."""
    e = len(pattern)
    pivot_set = set(pattern)
    free_pos = [
        (i, j) for i in range(e) for j in range(pattern[i] + 1, d) if j not in pivot_set
    ]
    template = [[0] * d for i in range(e)]
    for i, c in enumerate(pattern):
        template[i][c] = 1
    if not free_pos:
        basis = tuple(tuple(r) for r in template)
        yield Subspace(d, basis, tuple(pattern))
        return
    pat = tuple(pattern)
    for values in product(fld.elements(), repeat=len(free_pos)):
        for (i, j), v in zip(free_pos, values):
            template[i][j] = v
        yield Subspace(d, tuple(tuple(r) for r in template), pat)


def subspaces_for_pattern_bits(d: int, pattern) -> Iterator[tuple]:
    """subspaces_for_pattern over F_2, as tuples of bitmask rows, same order.

    Each row's candidates are listed in odometer order over its own free
    entries; rows are consecutive in the row-major odometer, so the product
    over rows (last row fastest) is the odometer over all free entries.
    """
    pivot_set = set(pattern)
    candidates = []
    for c in pattern:
        free = [j for j in range(c + 1, d) if j not in pivot_set]
        candidates.append(
            [
                (1 << c) | sum(1 << j for j, v in zip(free, values) if v)
                for values in product((0, 1), repeat=len(free))
            ]
        )
    return product(*candidates)


def enumerate_subspaces(d: int, e: int, fld: Field) -> Iterator[Subspace]:
    """Every e-subspace of (F_q)^d exactly once, in the canonical order."""
    if not 0 <= e <= d:
        raise ValueError(f"need 0 <= e <= d, got e={e}, d={d}")
    if e == 0:
        yield Subspace(d, (), ())
        return
    for pattern in combinations(range(d), e):
        yield from subspaces_for_pattern(d, pattern, fld)


def members(d: int, e: int, fld: Field) -> Iterator:
    """Every e-subspace in the canonical order, in the field's representation.

    Over F_2 each member is a tuple of bitmask rows; over other fields it is
    a Subspace.  points(fld, s) lists its projective points, and pair_test
    and complement_rows are the matching complementarity tests.
    """
    if fld.q == 2:
        patterns = combinations(range(d), e)
        return chain.from_iterable(subspaces_for_pattern_bits(d, p) for p in patterns)
    return enumerate_subspaces(d, e, fld)


def points(fld: Field, s) -> list:
    """Ids sum_j v_j q^j of the (q^e - 1)/(q - 1) normalized vectors v of member s.

    Over F_2 they are the nonzero XOR span of the bitmask rows.  Over other
    fields they are b_i + (a combination of the later rows) for each RREF
    basis row b_i; the later rows vanish at b_i's pivot, so it leads with 1.
    """
    if fld.q == 2:
        span = [0]
        for r in s:
            span += [x ^ r for x in span]
        return span[1:]
    add, mul = fld.add, fld.mul
    weights = [fld.q**j for j in range(s.d)]
    ids = []
    span = [(0,) * s.d]  # every vector spanned by the rows after b
    led = []  # the points led by b: b + span
    for b in reversed(s.basis):
        if led:
            span += [tuple(mul(c, x) for x in w) for c in range(1, fld.q) for w in led]
        led = [tuple(map(add, b, v)) for v in span]
        ids += [sum(map(int.__mul__, w, weights)) for w in led]
    return ids


# -- complementarity -------------------------------------------------------


def complementary(s1: Subspace, s2: Subspace, fld: Field) -> bool:
    """True iff s1 + s2 has dimension e1 + e2 (trivial intersection)."""
    if s1.d != s2.d:
        raise ValueError(f"ambient mismatch: {s1.d} != {s2.d}")
    if s1.e + s2.e > s1.d:
        return False
    # Seed elimination with s1, already in RREF.
    by_pivot = {p: list(row) for p, row in zip(s1.pivots, s1.basis)}
    d = s1.d
    for row in s2.basis:
        r = list(row)
        lead = None
        for j in range(d):
            if not r[j]:
                continue
            piv = by_pivot.get(j)
            if piv is None:
                lead = j
                break
            f = r[j]
            if f == 1:
                for t in range(j, d):
                    if piv[t]:
                        r[t] = fld.sub(r[t], piv[t])
            else:
                for t in range(j, d):
                    if piv[t]:
                        r[t] = fld.sub(r[t], fld.mul(f, piv[t]))
        if lead is None:
            return False
        inv = fld.inv(r[lead])
        if inv != 1:
            r = [fld.mul(inv, v) for v in r]
        by_pivot[lead] = r
    return True


def pair_test(fld: Field) -> Callable:
    """Complementarity of members(..., fld), curried: pair_test(fld)(s1)(s2).

    complementary_bits over F_2, complementary over other fields.
    """
    if fld.q == 2:
        return lambda rows1: partial(complementary_bits, rows1)
    return lambda s1: lambda s2: complementary(s1, s2, fld)


def complement_rows(fld: Field, members1, members2) -> Iterator[int]:
    """Per S1 in members1, the bitmask whose bit j says S1 + members2[j] is direct.

    That holds iff the two share no projective point, so a row is the
    complement of the OR of the incidence masks (bit j for each S2 through
    the point) of S1's points: no pair costs an elimination.
    """
    size = (len(members2) + 7) >> 3
    through = defaultdict(lambda: bytearray(size))  # bit j set byte by byte
    for j, s2 in enumerate(members2):
        for x in points(fld, s2):
            through[x][j >> 3] |= 1 << (j & 7)
    get = {x: int.from_bytes(mask, "little") for x, mask in through.items()}.get
    full = (1 << len(members2)) - 1
    for s1 in members1:
        hit = 0
        for x in points(fld, s1):
            hit |= get(x, 0)
        yield full & ~hit


def complementary_bits(rows1, rows2) -> bool:
    """GF(2) complementarity on bitmask rows.  Hot loop: no Subspace objects."""
    basis = {}
    for r in rows1:
        basis[r & -r] = r
    for r in rows2:
        while r:
            low = r & -r
            piv = basis.get(low)
            if piv is None:
                basis[low] = r
                break
            r ^= piv
        else:
            return False
    return True


def rank_bits(rows) -> int:
    """Rank over F_2 of bitmask rows."""
    basis = {}
    rk = 0
    for r in rows:
        while r:
            low = r & -r
            piv = basis.get(low)
            if piv is None:
                basis[low] = r
                rk += 1
                break
            r ^= piv
    return rk
