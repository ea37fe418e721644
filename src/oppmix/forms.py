"""Classical forms on (F_q)^d: standard models and restricted-form classification.

Quadratic forms are stored as upper-triangular coefficient grids and the
polar bilinear form is *derived* (gram = C + C^T); in characteristic 2 the
polar form does not determine Q, so the coefficients are primary.  The
standard models, fixed here once and for all:

  orthogonal +      Q = x0 x1 + x2 x3 + ...          (consecutive pairs)
  orthogonal -      hyperbolic pairs, then Q += x_{d-2}^2 + x_{d-2} x_{d-1}
                    + delta x_{d-1}^2 on the last two coordinates, delta the
                    least field element making that plane anisotropic
  symplectic        gram [[0, I], [-I, 0]]           (split pairing i <-> m+i)
  hermitian         identity gram over F_{q^2}, B(x,y) = sum x_i conj(y_i)

A RestrictedForm is the form on a subspace's basis: its gram (polar, if
orthogonal) and Q on each basis row.  Non-degeneracy is a full-rank gram.
For an even-dimensional quadratic restriction that agrees with the radical
refinement (degenerate iff some nonzero vector of the polar radical is
singular) in every characteristic: in characteristic 2 the polar form is
alternating, so a degenerate one has a radical of dimension >= 2, on which
Q has a nonzero zero.  There an odd-dimensional polar gram is always
singular, so is_nondegenerate refuses odd quadratic restrictions; the
theorems have none.

Type classification of a non-degenerate even restriction counts singular
projective points exhaustively (scaling preserves singularity), then matches
the count against the two closed-form totals.  Over a prime field the count
is a packed kernel (singular_count): one int per monomial column, one field
per projective representative.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from itertools import combinations, product, repeat
from math import prod
from operator import mul, xor
from typing import Callable, NamedTuple

from .exactnum import HERMITIAN, ORTHOGONAL, SYMPLECTIC  # noqa: F401 (re-exported)
from .gf import Field, field
from .linalg import rank


class ClassicalForm(NamedTuple):
    kind: str
    d: int
    q: int  # the defining parameter: ambient field is F_q, or F_{q^2} if hermitian
    field: Field
    gram: tuple  # bilinear/sesquilinear gram; polar form in the orthogonal case
    quad: tuple | None  # upper-triangular Q coefficients, orthogonal only
    eps: int | None  # declared type of the orthogonal standard model
    delta: int | None  # anisotropic-plane coefficient actually used

    def quad_value(self, v) -> int:
        if self.kind != ORTHOGONAL:
            raise ValueError(f"no quadratic form on a {self.kind} space")
        fld = self.field
        acc = 0
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = self.quad[i]
            for j in range(i, self.d):
                if row[j] and v[j]:
                    acc = fld.add(acc, fld.mul(row[j], fld.mul(vi, v[j])))
        return acc


class RestrictedForm(NamedTuple):
    kind: str
    e: int
    field: Field
    gram: tuple  # e x e restricted bilinear (polar, if orthogonal) gram
    qdiag: tuple | None  # Q(b_i) per basis row, orthogonal only


def anisotropic_delta(fld: Field) -> int:
    """Least c such that x^2 + xy + c y^2 has no nonzero root."""
    for c in fld.elements():
        if all(
            fld.add(fld.mul(t, t), fld.add(t, c)) != 0 for t in fld.elements()
        ):
            # t^2 + t + c != 0 for every t covers y != 0; y = 0 forces x = 0
            return c
    raise AssertionError(f"no anisotropic plane over F_{fld.q}")


def _polar_from_quad(quad, fld: Field, d: int) -> tuple:
    # gram = C + C^T for the upper-triangular coefficient grid C
    gram = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            upper = quad[i][j] if j >= i else 0
            lower = quad[j][i] if i >= j else 0
            gram[i][j] = fld.add(upper, lower)
    return tuple(tuple(r) for r in gram)


def standard_form(kind: str, d: int, q: int, eps: int | None = None) -> ClassicalForm:
    """The fixed standard model; see the module docstring for conventions."""
    if kind == ORTHOGONAL:
        if d % 2 or d < 2:
            raise ValueError(f"orthogonal model needs even d >= 2, got {d}")
        if eps not in (1, -1):
            raise ValueError("orthogonal model needs eps = +1 or -1")
        fld = field(q)
        quad = [[0] * d for _ in range(d)]
        m = d // 2
        pairs = m if eps == 1 else m - 1
        for i in range(pairs):
            quad[2 * i][2 * i + 1] = 1
        delta = None
        if eps == -1:
            delta = anisotropic_delta(fld)
            quad[d - 2][d - 2] = 1
            quad[d - 2][d - 1] = 1
            quad[d - 1][d - 1] = delta
        quad = tuple(tuple(r) for r in quad)
        gram = _polar_from_quad(quad, fld, d)
        form = ClassicalForm(kind, d, q, fld, gram, quad, eps, delta)
        if rank(gram, fld) != d:
            raise ArithmeticError(f"the standard orthogonal polar form on F_{q}^{d} is degenerate")
        return form
    if kind == SYMPLECTIC:
        if d % 2 or d < 2:
            raise ValueError(f"symplectic model needs even d >= 2, got {d}")
        fld = field(q)
        m = d // 2
        gram = [[0] * d for _ in range(d)]
        for i in range(m):
            gram[i][m + i] = 1
            gram[m + i][i] = fld.neg(1)
        gram = tuple(tuple(r) for r in gram)
        return ClassicalForm(kind, d, q, fld, gram, None, None, None)
    if kind == HERMITIAN:
        if d < 1:
            raise ValueError(f"hermitian model needs d >= 1, got {d}")
        fld = field(q * q)
        gram = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        return ClassicalForm(kind, d, q, fld, gram, None, None, None)
    raise ValueError(f"unknown kind {kind!r}")


def is_nondegenerate(r: RestrictedForm) -> bool:
    """Full rank of the gram; an odd quadratic restriction raises ValueError."""
    if r.kind == ORTHOGONAL and r.e % 2:
        raise ValueError(f"rank decides quadratic restrictions of even dimension, got {r.e}")
    return rank(r.gram, r.field) == r.e


@lru_cache(maxsize=None)
def _projective_reps(e: int, q: int) -> tuple:
    """One representative per 1-space: first nonzero coordinate scaled to 1."""
    reps = []
    for t in range(e):
        for tail in product(range(q), repeat=e - 1 - t):
            reps.append((0,) * t + (1,) + tail)
    return tuple(reps)


def singular_point_counts(m: int, q: int) -> tuple:
    """(plus, minus) totals of nonzero singular vectors in dimension 2m."""
    return (q**m - 1) * (q ** (m - 1) + 1), (q**m + 1) * (q ** (m - 1) - 1)


def singular_count(r: RestrictedForm) -> int:
    """Number of nonzero singular vectors of the restricted quadratic form.

    Q(v) = sum_i qdiag_i v_i^2 + sum_{i<j} gram_ij v_i v_j is one dot product
    of those coefficients with v's monomials, one per projective
    representative v.  Over a prime field the monomial table's columns are
    packed (_packed_monomials), so all the dot products come from
    e(e+1)/2 small-int times big-int steps, and the count is the number of
    packed fields that are 0 mod p.  Extension fields read the table row by
    row.
    """
    if r.kind != ORTHOGONAL:
        raise ValueError("singular_count is for quadratic restrictions")
    fld = r.field
    coeffs = (*r.qdiag, *(r.gram[i][j] for i in range(r.e) for j in range(i + 1, r.e)))
    if fld.k == 1:
        columns, fmt, size, zero = _packed_monomials(r.e, fld)
        fields = memoryview(sum(map(mul, coeffs, columns)).to_bytes(size, sys.byteorder))
        hits = sum(map(zero.__getitem__, fields.cast(fmt)))
    else:
        dot = fld.dot
        hits = sum(not dot(coeffs, m) for m in _monomials(r.e, fld))
    return hits * (fld.q - 1)


@lru_cache(maxsize=None)
def _monomials(e: int, fld: Field) -> tuple:
    """(v_i^2 for each i, then v_i v_j for i < j) per projective representative v."""
    pairs = [(i, i) for i in range(e)] + [(i, j) for i in range(e) for j in range(i + 1, e)]
    return tuple(
        tuple(fld.mul(v[i], v[j]) for i, j in pairs) for v in _projective_reps(e, fld.q)
    )


@lru_cache(maxsize=None)
def _packed_monomials(e: int, fld: Field) -> tuple:
    """(columns, fmt, size, zero): _monomials(e, fld) packed for a prime field.

    Column t is sum_r m_r[t] 2^(w r) over the representatives r, in fields of
    w bits.  A field of sum_t c_t column_t, with every c_t and m_r[t] in
    [0, p), is at most bound = e(e+1)/2 (p - 1)^2, so w is the width of the
    narrowest unsigned machine format fmt above the bound: the fields never
    carry into each other, and the sum is `size` bytes long.  zero[v] is 1
    iff v = 0 mod p, for v up to the bound.
    """
    table = _monomials(e, fld)
    terms = e * (e + 1) // 2
    bound = terms * (fld.p - 1) ** 2
    fmt = next(c for c in "BHIQ" if bound < 1 << 8 * struct.calcsize(c))
    w = 8 * struct.calcsize(fmt)
    columns = tuple(sum(m[t] << (w * r) for r, m in enumerate(table)) for t in range(terms))
    zero = bytes(v % fld.p == 0 for v in range(bound + 1))
    return columns, fmt, len(table) * w // 8, zero


def orthogonal_type(r: RestrictedForm) -> int:
    """+1 or -1 from the singular-vector count of a non-degenerate restriction."""
    if r.e % 2:
        raise ValueError(f"type is defined for even dimensions, got {r.e}")
    n = singular_count(r)
    plus, minus = singular_point_counts(r.e // 2, r.field.q)
    if n == plus:
        return 1
    if n == minus:
        return -1
    raise ArithmeticError(
        f"singular count {n} matches neither type (dim {r.e}, q {r.field.q}); "
        "a degenerate restriction slipped through"
    )


# -- GF(2): one count of the vectors with Q = 1 classifies either kind ---------


@lru_cache(maxsize=None)
def quad_table_gf2(form: ClassicalForm) -> bytes:
    """Q on all 2^d bitmask vectors of an orthogonal or symplectic form over F_2.

    The symplectic Q is sum_{i<j} G_ij v_i v_j for the gram G.  With i the
    lowest coordinate of v, Q(v) = Q(v - e_i) + sum_{j >= i} c_ij v_j.
    """
    if form.q != 2 or form.kind == HERMITIAN:
        raise ValueError("quad table needs a bilinear form over F_2")
    coeffs = form.quad or [[g * (j > i) for j, g in enumerate(r)] for i, r in enumerate(form.gram)]
    masks = [sum(c << j for j, c in enumerate(row)) for row in coeffs]
    table = bytearray(1 << form.d)
    for v in range(1, 1 << form.d):
        i = (v & -v).bit_length() - 1
        table[v] = table[v ^ (1 << i)] ^ ((v & masks[i]).bit_count() & 1)
    return bytes(table)


def verdicts_by_count_gf2(e: int) -> dict:
    """Nonzero v with Q(v) = 1, counted -> sigma if non-degenerate of type sigma, else 0.

    For e >= 1.  An e-dimensional quadratic space over F_2 is W + R, R the
    polar radical, W non-degenerate of dimension 2m and type sigma (+1 if
    m = 0).  Half of its 2^e vectors have Q = 1 if Q is not zero on R, else
    2^(e-1) - sigma 2^(e-1-m) do.  No quadratic form gives another count.
    """
    verdicts = {}
    for m in range(e // 2 + 1):
        r = e - 2 * m
        if r:
            verdicts[1 << (e - 1)] = 0
        for sigma in (1, -1) if m else (1,):
            verdicts[(1 << (e - 1)) - sigma * (1 << (e - 1 - m))] = 0 if r else sigma
    return verdicts


def lane_classifier_gf2(form: ClassicalForm, e: int) -> Callable[[list], bytes]:
    """Verdicts over F_2 of every member with one pivot pattern, for e >= 1.

    The function returned maps the pattern's row candidates to one code per
    member of product(*candidates), in that order: 0 if degenerate, 1 if of
    type +1 (or symplectic), 2 if of type -1.  A count with no verdict raises.
    A symplectic member is non-degenerate iff quad_table_gf2's Q on it is.
    """
    orthogonal = form.kind == ORTHOGONAL
    code = {c: s and 1 + (orthogonal and s < 0) for c, s in verdicts_by_count_gf2(e).items()}
    qt = quad_table_gf2(form)
    fmt = next(f for f in "BHIQ" if e <= 8 * struct.calcsize(f))  # a count is below 2^e
    table = bytes(code.get(c, 255) for c in range(256))

    def codes(candidates: list) -> bytes:
        counts = _lane_counts(qt, candidates, fmt)
        if fmt == "B":
            out = counts.translate(table)
        else:
            out = bytes(map(code.get, memoryview(counts).cast(fmt), repeat(255)))
        if 255 in out:
            raise ArithmeticError(f"a Q = 1 count matches no verdict ({form.kind}, e = {e})")
        return out

    return codes


def _lane_counts(qt: bytes, candidates: list, fmt: str) -> bytes:
    """Per member of product(*candidates), in that order, the count of nonzero
    v in its span with Q(v) = 1, in one lane of struct format fmt.

    Lanes of Q(b_i) and of B(b_i, b_j) = Q(b_i ^ b_j) ^ Q(b_i) ^ Q(b_j) are
    laid out by bytes repetition.  Q of each nonempty sum s of rows follows
    in Gray-code order, Q(s + b_k) = Q(s) + Q(b_k) + B(b_k, s), by XORs of
    whole ints, and the sum of those 2^e - 1 ints is the count in every
    lane: fmt holds 2^e - 1, so no lane carries into the next.
    """
    size = struct.calcsize(fmt)
    one, zero = (1).to_bytes(size, sys.byteorder), bytes(size)
    e = len(candidates)
    strides = [prod(map(len, candidates[i + 1 :])) for i in range(e)]  # lanes per candidate

    def lanes(i, runs) -> int:  # runs[k]: the stretch where row i is its k-th candidate
        block = b"".join(runs) * prod(map(len, candidates[:i]))
        return int.from_bytes(block, sys.byteorder)

    quad = []
    for i, rows in enumerate(candidates):
        hi, lo = one * strides[i], zero * strides[i]
        quad.append(lanes(i, [hi if qt[x] else lo for x in rows]))
    polar = [[0] * e for _ in range(e)]
    for i, j in combinations(range(e), 2):
        hi, lo = one * strides[j], zero * strides[j]
        later = [(y, qt[y]) for y in candidates[j]]
        between = strides[i] // strides[j] // len(later)
        runs = [
            b"".join([hi if qt[x ^ y] ^ qt[x] ^ qy else lo for y, qy in later]) * between
            for x in candidates[i]
        ]
        polar[i][j] = polar[j][i] = lanes(i, runs)
    total = value = 0
    cross = [0] * e  # cross[j]: the lanes of B(b_j, s) for the current sum s
    for step in range(1, 1 << e):
        k = (step & -step).bit_length() - 1
        value ^= quad[k] ^ cross[k]
        cross = list(map(xor, cross, polar[k]))
        total += value
    return total.to_bytes(prod(map(len, candidates)) * size, sys.byteorder)
