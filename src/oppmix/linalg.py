"""Matrices and canonical subspaces over the gf fields.

A subspace is held as the tuple of its reduced-row-echelon rows, which makes
equality structural and the enumeration duplicate-free; each row's pivot is
its leading 1.  The enumeration order is fixed: pivot-column patterns
lexicographically, then an odometer over the free entries (row-major
positions, rightmost digit fastest, field values ascending).  members is the
one enumerator, for every field: the product over pivot rows, last row
fastest, of each row's candidates (row_candidates) in odometer order over
that row's own free entries.  Consecutive subspaces therefore share every
row but the last, which the partition build and complement_rows exploit.

row_candidates is the one place that picks a field's row representation:
bitmask ints (bit j = coordinate j) over F_2, tuples of d field values over
every other field.  Callers never branch on q.  Two subspaces meet trivially
iff they share no projective point, so complement_rows decides all of
Y1 x Y2 by point incidence, with no elimination per pair.
complement_candidates lists the complements of one member directly, as
graphs of linear maps in that member's row representation, for the
single-orbit count to classify.  det is one forward elimination.
Subspace spells out the dimension and pivots of RREF rows; the package
makes none.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, product, repeat
from typing import Iterator, NamedTuple

from .gf import Field


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


def det(rows, fld: Field) -> int:
    """Determinant of a square matrix, by one forward elimination.

    Column by column, the first remaining row that is nonzero there becomes
    the next pivot row and clears the column below it.  The running product
    of the pivots is the determinant: a row swap negates it and a column
    without a pivot makes it 0.  The empty matrix's is 1.
    """
    work = [list(r) for r in rows]
    out = 1
    for c in range(len(work)):
        pr = next((i for i in range(c, len(work)) if work[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            out = fld.neg(out)
        row_c = work[c]
        out = fld.mul(out, row_c[c])
        inv = fld.inv(row_c[c])
        for i in range(c + 1, len(work)):
            if work[i][c]:
                work[i] = fld.sub_scaled(work[i], fld.mul(work[i][c], inv), row_c)
    return out


# -- enumeration -----------------------------------------------------------


def row_candidates(d: int, pattern, fld: Field) -> list:
    """Per pivot row, its candidates in odometer order over the row's own
    free entries: int bitmasks over F_2, tuples of d field values otherwise.

    The free entries of one row are consecutive in the row-major odometer,
    so the product over rows, last row fastest, lists the subspaces with
    these pivot columns in the canonical order.
    """
    pivot_set = set(pattern)
    out = []
    for c in pattern:
        free = [j for j in range(c + 1, d) if j not in pivot_set]
        rows = []
        for values in product(fld.elements(), repeat=len(free)):
            row = [0] * d
            row[c] = 1
            for j, v in zip(free, values):
                row[j] = v
            rows.append(tuple(row))
        out.append(list(map(_row_to_bits, rows)) if fld.q == 2 else rows)
    return out


def members(d: int, e: int, fld: Field) -> Iterator:
    """Every e-subspace in the canonical order, as the tuple of its RREF rows.

    A row is a bitmask over F_2 and a tuple of field values otherwise.
    """
    if not 0 <= e <= d:
        raise ValueError(f"need 0 <= e <= d, got e={e}, d={d}")
    return chain.from_iterable(
        product(*row_candidates(d, p, fld)) for p in combinations(range(d), e)
    )


def _through(fld: Field, span: list, row) -> list:
    """The normalized vectors of span + <row> that lie outside span.

    span holds the normalized vectors (leading entry 1) of a subspace whose
    RREF pivots all precede row's, and row is in RREF against them.  Those
    vectors are row and x + c row for each x in span and c != 0, and each
    leads with 1.  Over F_2 a vector is a bitmask and x + row is x ^ row.
    """
    if fld.q == 2:
        return [row, *map(row.__xor__, span)]
    add = fld.add
    out = [row]
    for c in range(1, fld.q):
        cr = fld.scale(c, row)
        out += [tuple(map(add, x, cr)) for x in span]
    return out


def _point_ids(fld: Field, vectors: list) -> list:
    """Id sum_j v_j q^j of each vector v; over F_2 the bitmask is its own id."""
    if fld.q == 2:
        return vectors
    weights = [fld.q**j for j in range(len(vectors[0]))] if vectors else []
    return [sum(map(int.__mul__, v, weights)) for v in vectors]


def _split_points(fld: Field, members) -> Iterator[tuple]:
    """Per member: (ids of the points of the span of all its rows but the
    last, or None when those rows are the previous member's; ids of the
    points through its last row).

    Members in the canonical order share every row but the last with their
    neighbours, so the span of those rows is built once per run of members.
    """
    prefix = span = None
    for rows in members:
        head = None
        if rows[:-1] != prefix:
            prefix, span = rows[:-1], []
            for row in prefix:
                span += _through(fld, span, row)
            head = _point_ids(fld, span)
        yield head, _point_ids(fld, _through(fld, span, rows[-1])) if rows else []


# -- complementarity -------------------------------------------------------


def complement_rows(fld: Field, members1, members2) -> Iterator[int]:
    """Per S1 in members1, the bitmask whose bit j says S1 + members2[j] is direct.

    That holds iff the two share no projective point, so a row is the
    complement of the OR of the incidence masks (bit j for each S2 through
    the point) of S1's points: no pair costs an elimination.  The OR over
    the span of all rows but the last is kept while consecutive S1 share
    those rows (_split_points), so each S1 adds only the points through its
    last row.
    """
    size = (len(members2) + 7) >> 3
    through = defaultdict(lambda: bytearray(size))  # bit j set byte by byte
    for j, (head, last) in enumerate(_split_points(fld, members2)):
        shared = head if head is not None else shared
        for x in shared + last:
            through[x][j >> 3] |= 1 << (j & 7)
    get = {x: int.from_bytes(mask, "little") for x, mask in through.items()}.get
    full = (1 << len(members2)) - 1
    for head, last in _split_points(fld, members1):
        if head is not None:
            base = 0
            for x in head:
                base |= get(x, 0)
        hit = base
        for x in last:
            hit |= get(x, 0)
        yield full ^ hit  # hit has no bit at or above len(members2)


def complement_candidates(d: int, s, fld: Field) -> list:
    """Per non-pivot column f of the member s, the vectors e_f + x for every x
    in s, in odometer order over x's coordinates (last row fastest), in s's
    row representation.  The complements of s are exactly the graphs
    {w + A(w)} of the linear maps A from the span of those e_f into s, whose
    row f is any vector of e_f + s: the product of the lists lists each once.
    """
    if fld.q == 2:  # bitmask rows: the sum x + y is x ^ y
        span = [0]
        for b in s:
            span = [x ^ y for x in span for y in (0, b)]
        pivots = {b & -b for b in s}
        return [[x ^ 1 << f for x in span] for f in range(d) if 1 << f not in pivots]
    add, span = fld.add, [(0,) * d]
    for b in s:
        span = [tuple(map(add, x, y)) for x in span for y in map(fld.scale, fld.elements(), repeat(b))]
    pivots = {b.index(1) for b in s}  # each row's first nonzero entry is its leading 1
    units = [tuple(int(j == f) for j in range(d)) for f in range(d) if f not in pivots]
    return [[tuple(map(add, x, u)) for x in span] for u in units]
