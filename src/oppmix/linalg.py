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
scans many members from each of a few fixed ones by projection modulo the
fixed member.  Over F_2 it packs the scanned side into bytes once and
decides a whole side per fixed member with bytes.translate and big-int
operations, a determinant being the parity of a product of minor tables.
rank and det are two reads of one forward elimination (_eliminate).
Subspace spells out the dimension and pivots of RREF rows; the package
makes none.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, islice, product
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


def complement_hits(fld: Field, d: int, fixed, members) -> list:
    """Per member s of fixed, how many of members, a sequence of one dimension r, meet s trivially.

    Each vector maps to its image modulo s: its reduction by s's RREF rows,
    read at s's m = d - dim s non-pivot columns.  s + T is direct iff the
    images of T's rows are independent, so no member costs an elimination.
    Over F_2, members are packed once and each s scans them all at once
    (_independent_gf2); over other fields each distinct row's image is
    computed once per s (the set of distinct rows is built once per call),
    and at r = m = 2 the verdict is one 2 x 2 determinant.
    """
    if not members:
        return [0] * len(fixed)
    if fld.q == 2:
        return [sum(f.count(1) for f in flags) for flags in _independent_gf2(d, fixed, members)]
    rows = {row for t in members for row in t}
    return [_generic_hits(fld, d, s, members, rows) for s in fixed]


def _generic_hits(fld: Field, d: int, s, members, rows) -> int:
    by_pivot = {b.index(1): b for b in s}  # b is 0 at every other pivot
    free = [j for j in range(d) if j not in by_pivot]
    images: dict = {}
    for row in rows:
        v = row
        for p, b in by_pivot.items():
            v = fld.sub_scaled(v, row[p], b) if row[p] else v
        images[row] = tuple(v[j] for j in free)
    if len(free) == 2 and len(members[0]) == 2:
        mul, pairs = fld.mul, (map(images.get, t) for t in members)
        return sum(mul(a, e) != mul(b, c) for (a, b), (c, e) in pairs)
    return sum(rank(list(map(images.get, t)), fld) == len(t) for t in members)


_PARITY = bytes(v.bit_count() & 1 for v in range(256))
_SLICE = 8192  # members per packed block


def _independent_gf2(d: int, fixed, members) -> Iterator[list]:
    """Per bitmask member s of fixed, one byte per member T of members, in
    blocks of bytes: 1 if the images of T's rows modulo s are independent,
    else 0.

    When T has m = d - dim s <= 4 rows and d <= 16, the byte is the
    determinant of the m x m matrix of images, expanded along its first
    k = ceil(m/2) rows.  Over F_2 the signs vanish, so it is the parity of
    P(top) & P*(bottom): bit t of P(top) is the top rows' minor at the t-th
    k-subset of columns, bit t of P*(bottom) the bottom rows' minor at its
    complement (_minor_tables).  members are packed once (_pack).  An image
    is linear in a row's bits, so one 256-entry table per row byte maps a
    lane of row bytes to their images, already shifted to their place in
    the minor tables' index; the byte positions are XORed as big ints.  No
    member takes a Python step.  Other shapes count each member's span.
    """
    r = len(members[0])
    blocks = None
    for s in fixed:
        units, m = _unit_images(d, s), d - len(s)
        if r != m or m > 4 or d > 16:  # not square, too large, or rows past two bytes
            proj = _span(units)
            yield [bytes(_independent_bits([proj[x] for x in t]) for t in members)]
            continue
        if blocks is None:
            blocks, width = _pack(d, r, members), (d + 7) // 8  # bytes per row
            stride = r * width  # bytes per member
        k = (m + 1) // 2
        bases = [_span(units[j : j + 8] + [0] * (j + 8 - d)) for j in range(0, d, 8)]
        tables = [  # per row and row byte: the images, shifted into the minor tables' index
            (i, j, bytes([v << m * (i if i < k else i - k) for v in base]))
            for i in range(r)
            for j, base in enumerate(bases)
        ]
        top, bottom = _minor_tables(m)
        flags = []
        for block, size in blocks:
            index = [0, 0]  # the top rows' images, the bottom rows'
            for i, j, table in tables:
                lane = block[i * width + j :: stride].translate(table)
                index[i >= k] ^= int.from_bytes(lane, "little")
            p, p_star = (
                int.from_bytes(v.to_bytes(size, "little").translate(t), "little")
                for v, t in zip(index, (top, bottom))
            )
            flags.append((p & p_star).to_bytes(size, "little").translate(_PARITY))
        yield flags


def _pack(d: int, r: int, members) -> list:
    """Members of r rows, _SLICE at a time, as (bytes, member count) pairs.

    A block holds every row of its members in order, ceil(d/8) <= 2 bytes
    each, little-endian.  Blocks keep the scan's temporaries, and the
    packing's own, small beside the packed side.
    """
    blocks, it = [], iter(members)
    for a in range(0, len(members), _SLICE):
        size = min(_SLICE, len(members) - a)
        rows = chain.from_iterable(islice(it, size))
        blocks.append((bytes(rows) if d <= 8 else struct.pack(f"<{size * r}H", *rows), size))
    return blocks


def _unit_images(d: int, s) -> list:
    """The image modulo bitmask member s of each unit vector, as an int of d - dim s bits.

    Bit t of an image is its entry at s's t-th non-pivot column.  The image
    of the unit vector at a pivot is the non-pivot part of that pivot's row.
    """
    by_pivot = {r & -r: r for r in s}
    free = [1 << j for j in range(d) if 1 << j not in by_pivot]
    return [
        sum(1 << t for t, b in enumerate(free) if by_pivot.get(1 << j, 1 << j) & b)
        for j in range(d)
    ]


def _span(vectors: list) -> list:
    """The table of 2^len(vectors) entries whose entry v is the XOR of the vectors at v's bits."""
    out = [0]
    for x in vectors:
        out += [v ^ x for v in out]
    return out


@lru_cache(maxsize=None)
def _minor_tables(m: int) -> tuple:
    """(top, bottom): 256-entry tables of the minors of an m x m matrix over F_2, m <= 4.

    An index holds the first k = ceil(m/2) rows (top) or the other m - k
    (bottom), row i at bits m*i up.  Bit t of top[index] is the minor of
    those rows at the t-th k-subset of the m columns, in combinations order;
    bit t of bottom[index] is the minor of the bottom rows at that subset's
    complement.
    """
    top = list(combinations(range(m), (m + 1) // 2))
    bottom = [tuple(j for j in range(m) if j not in c) for c in top]
    return tuple(bytes(_minors(m, family)).ljust(256, b"\0") for family in (top, bottom))


def _minors(m: int, family: list) -> list:
    """Per index of len(family[0]) rows of m bits, row i at bits m*i up, the
    bitmask whose bit t is the minor of those rows at the columns family[t].

    A minor is linear in the first row: expanded along it, column c adds the
    minor of the other rows at family[t] without c.  So the entries for one
    choice of the other rows are the span of one vector per column.
    """
    if not family[0]:
        return [1]  # the family is the empty subset alone, whose minor is 1
    drops = sorted({f[:i] + f[i + 1 :] for f in family for i in range(len(f))})
    at = {g: 1 << i for i, g in enumerate(drops)}  # a dropped subset's bit in rest
    out = []
    for rest in _minors(m, drops):
        units = [0] * m
        for t, f in enumerate(family):
            for i, c in enumerate(f):
                if rest & at[f[:i] + f[i + 1 :]]:
                    units[c] |= 1 << t
        out += _span(units)
    return out


def _independent_bits(rows) -> bool:
    """Whether bitmask vectors over F_2 are independent: their span has 2^len(rows) vectors."""
    return len(set(_span(rows))) == 1 << len(rows)
