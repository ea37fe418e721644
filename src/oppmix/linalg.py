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
Y1 x Y2 by point incidence, with no elimination per pair.  complement_hits
scans one fixed member against many by projection modulo it.  rank and det
are two reads of one forward elimination (_eliminate).  Subspace spells out
the dimension and pivots of RREF rows; the package makes none.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, product
from typing import Iterator, NamedTuple

from .exactnum import BudgetError  # noqa: F401 (re-exported)
from .gf import Field


DEFAULT_ENUM_BUDGET = 1_500_000


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


def _eliminate(rows, fld: Field) -> tuple:
    """(rank, det) of rows, by one forward elimination.

    Column by column, the first remaining row that is nonzero there becomes
    the next pivot row and clears the column below it.  The running product
    of the pivots is the determinant of a square matrix: a row swap negates
    it and a column without a pivot zeroes it.  The empty matrix's is 1.
    """
    work = [list(r) for r in rows]
    r, out = 0, 1
    for c in range(len(work[0]) if work else 0):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            out = 0
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            out = fld.neg(out)
        row_r = work[r]
        out = fld.mul(out, row_r[c])
        inv = fld.inv(row_r[c])
        for i in range(r + 1, len(work)):
            if work[i][c]:
                work[i] = fld.sub_scaled(work[i], fld.mul(work[i][c], inv), row_r)
        r += 1
        if r == len(work):
            break
    return r, out


def rank(rows, fld: Field) -> int:
    return _eliminate(rows, fld)[0]


def det(rows, fld: Field) -> int:
    """Determinant of a square matrix."""
    return _eliminate(rows, fld)[1]


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


def complement_hits(fld: Field, d: int, s, members) -> int:
    """How many of members, a sequence of one dimension r, meet member s trivially.

    Each vector maps to its image modulo s: its reduction by s's RREF rows,
    read at s's m = d - dim s non-pivot columns.  s + T is direct iff the
    images of T's rows are independent, so no member costs an elimination.
    Over F_2 the images of all 2^d vectors are one list; over other fields
    each distinct row's image is computed once, and at r = m = 2 the verdict
    is one 2 x 2 determinant.
    """
    if not members:
        return 0
    if fld.q == 2:
        proj, m = _projection_gf2(d, s)
        return sum(_independent_gf2(m, proj, members))
    by_pivot = {b.index(1): b for b in s}  # b is 0 at every other pivot
    free = [j for j in range(d) if j not in by_pivot]
    images: dict = {}
    for row in {row for t in members for row in t}:
        v = row
        for p, b in by_pivot.items():
            v = fld.sub_scaled(v, row[p], b) if row[p] else v
        images[row] = tuple(v[j] for j in free)
    if len(free) == 2 and len(members[0]) == 2:
        mul, pairs = fld.mul, (map(images.get, t) for t in members)
        return sum(mul(a, e) != mul(b, c) for (a, b), (c, e) in pairs)
    return sum(rank(list(map(images.get, t)), fld) == len(t) for t in members)


def _projection_gf2(d: int, s) -> tuple:
    """(proj, m): proj[v] is the image of bitmask v modulo bitmask member s, in m bits.

    Bit t of an image is its entry at s's t-th non-pivot column.  The image
    of the unit vector at a pivot is the non-pivot part of that pivot's row.
    """
    by_pivot = {r & -r: r for r in s}
    free = [1 << j for j in range(d) if 1 << j not in by_pivot]
    proj = [0]
    for j in range(d):
        x = by_pivot.get(1 << j, 1 << j)
        unit = sum(1 << t for t, b in enumerate(free) if x & b)
        proj += [v ^ unit for v in proj]
    return proj, len(free)


def _independent_gf2(m: int, proj: list, members) -> Iterator[bool]:
    """Per member (a tuple of bitmask rows x), whether the images proj[x] are independent.

    Images a, b are independent iff a·b·(a ^ b) != 0.  For members of
    dimension m = 2 or 4 (the only ones an even split over F_2 leaves) a
    list of 2^(2m) entries indexed by a | b << m decides: it holds the span
    of an independent pair as a 2^m-bit set of vectors, 0 for a dependent
    one.  At m = 2 a member is independent iff its entry is not 0, at m = 4
    (a, b, c, e) is independent iff span(a, b) and span(c, e) meet in bit 0
    (the zero vector) alone.  Otherwise the span of the images is counted.
    """
    if m not in (2, 4) or len(members[0]) != m:
        return (_independent_bits([proj[x] for x in t]) for t in members)
    pairs = [(a, b) for b in range(1 << m) for a in range(1 << m)]
    lo, hi = proj, [v << m for v in proj]
    span = [1 | 1 << a | 1 << b | 1 << (a ^ b) if a * b * (a ^ b) else 0 for a, b in pairs]
    if m == 2:
        return (span[lo[a] | hi[b]] != 0 for a, b in members)
    return (span[lo[a] | hi[b]] & span[lo[c] | hi[e]] == 1 for a, b, c, e in members)


def _independent_bits(rows) -> bool:
    """Whether bitmask vectors over F_2 are independent: their span has 2^len(rows) vectors."""
    span = {0}
    for x in rows:
        span |= {v ^ x for v in span}
    return len(span) == 1 << len(rows)
