"""Reference helpers that only the tests use: direct constructions that the
package's fast paths are checked against."""

from fractions import Fraction
from itertools import compress, product

from oppmix import forms, oracle
from oppmix.forms import ClassicalForm
from oppmix.gf import Field
from oppmix.linalg import Subspace, nullspace, rref


def subspace_from_rows(rows, fld: Field, d: int) -> Subspace:
    """The span of `rows` in (F_q)^d, as a canonical subspace."""
    red, piv = rref(rows, fld)
    return Subspace(d, red, piv)


def perp(form: ClassicalForm, s: Subspace) -> Subspace:
    """{v : B(v, b) = 0 for every basis vector b of s}, as a canonical subspace."""
    fld = form.field
    if s.e == 0:
        return nullspace((), fld, form.d)
    if form.kind == forms.HERMITIAN:
        vecs = [tuple(fld.conj(v) for v in row) for row in s.basis]
    else:
        vecs = list(s.basis)
    # rows[i][j] = B(e_j, b_i); kernel of this matrix is the perp
    rows = [tuple(fld.dot(form.gram[j], w) for j in range(form.d)) for w in vecs]
    return nullspace(rows, fld, form.d)


def rref_bits(rows) -> tuple:
    """(rref bitmask rows, pivot columns) over F_2; zero rows dropped."""
    work = [r for r in rows if r]
    out = []
    pivots = []
    col = 0
    while work:
        col_rows = [i for i, r in enumerate(work) if (r >> col) & 1]
        if not col_rows:
            col += 1
            continue
        piv = work.pop(col_rows[0])
        work = [w for w in ((r ^ piv if (r >> col) & 1 else r) for r in work) if w]
        out = [r ^ piv if (r >> col) & 1 else r for r in out]
        out.append(piv)
        pivots.append(col)
        col += 1
    return tuple(out), tuple(pivots)


def nullspace_bits(rows, d: int) -> tuple:
    """Canonical RREF bitmask basis of {v : parity(v & row) = 0 for all rows}."""
    red, pivots = rref_bits(rows)
    pivot_set = set(pivots)
    free = [j for j in range(d) if j not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return rref_bits(basis)[0]


def field_pow(fld: Field, x: int, n: int) -> int:
    """x^n in fld for n >= 0, by repeated multiplication."""
    out = 1
    for _ in range(n):
        out = fld.mul(out, x)
    return out


def conjugate_parts(mu) -> tuple:
    """The conjugate of the two-row partition [d - j, j]: [2^j, 1^(d - 2j)]."""
    return (2,) * mu.j + (1,) * (mu.d - 2 * mu.j)


def biadjacency_rows(bi) -> tuple:
    """N as a tuple of 0/1 row tuples, from a Biadjacency's row bitmasks."""
    return tuple(tuple((m >> j) & 1 for j in range(bi.n2)) for m in bi.masks)


def row_sums(bi) -> list:
    return [m.bit_count() for m in bi.masks]


def col_sums(bi) -> list:
    return [sum((m >> j) & 1 for m in bi.masks) for j in range(bi.n2)]


def points_by_span(fld: Field, s: Subspace) -> set:
    """Ids (base-q integers) of the normalized nonzero vectors of s's span."""
    q, ids = fld.q, set()
    for coeffs in product(range(q), repeat=s.e):
        v = [0] * s.d
        for c, row in zip(coeffs, s.basis):
            v = [fld.add(x, fld.mul(c, y)) for x, y in zip(v, row)]
        lead = next((x for x in v if x), 0)
        if lead:
            ids.add(sum(fld.mul(fld.inv(lead), x) * q**j for j, x in enumerate(v)))
    return ids


def singular_count_by_points(r) -> int:
    """forms.singular_count evaluated point by point through RestrictedForm.quad_value."""
    q = r.field.q
    hits = sum(1 for rep in forms._projective_reps(r.e, q) if r.quad_value(rep) == 0)
    return hits * (q - 1)


def edges_by_compress(rows, idx1, idx2) -> int:
    """Edges between row subset idx1 and column subset idx2 of a 0/1 matrix."""
    in_set2 = [0] * len(rows[0])
    for j in set(idx2):
        in_set2[j] = 1
    return sum(sum(compress(rows[i], in_set2)) for i in set(idx1))


def mixing_verdicts_by_fractions(n1, n2, k, qd, edges, s1, s2) -> tuple:
    """(holds, tight) of the squared mixing inequality, in Fractions.

    (edges / (n1 k) - a1 a2)^2 against a1 a2 (1 - a1) (1 - a2) / q^d, with
    the densities a1 = s1 / n1 and a2 = s2 / n2.
    """
    a1, a2 = Fraction(s1, n1), Fraction(s2, n2)
    lhs = Fraction(edges, n1 * k) - a1 * a2
    rhs_sq = Fraction(1, qd) * a1 * a2 * (1 - a1) * (1 - a2)
    return lhs * lhs <= rhs_sq, lhs * lhs == rhs_sq


def dense_factor_product(m, lams) -> list:
    """prod_j (m - lams[j] I) as a dense matrix, through oracle._mat_mul."""
    prod = None
    for lam in lams:
        factor = [[v - lam if r == c else v for c, v in enumerate(row)] for r, row in enumerate(m)]
        prod = factor if prod is None else oracle._mat_mul(prod, factor)
    return prod
