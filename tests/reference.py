"""Reference helpers that only the tests use: direct constructions that the
package's fast paths are checked against."""

from fractions import Fraction
from itertools import combinations, compress, permutations, product
from operator import mul
from typing import NamedTuple

from oppmix import forms, linalg
from oppmix.forms import ClassicalForm
from oppmix.gf import Field
from oppmix.linalg import Subspace, det


class RestrictedForm(NamedTuple):
    kind: str
    e: int
    field: Field
    gram: tuple  # e x e restricted bilinear (polar, if orthogonal) gram
    qdiag: tuple | None  # Q(b_i) per basis row, orthogonal only


def squares(fld: Field) -> frozenset:
    """The nonzero squares of fld, which decide quadratic characters (classify)."""
    return frozenset(fld.mul(x, x) for x in range(1, fld.q))


def classify(r: RestrictedForm):
    """None if r is degenerate, else its type: +1 or -1 if orthogonal, True otherwise.

    Non-degeneracy is a nonzero gram determinant.  For an even quadratic
    restriction that agrees with the radical refinement (degenerate iff some
    nonzero vector of the polar radical is singular) in every characteristic:
    in characteristic 2 the polar form is alternating, so a degenerate one has
    a radical of dimension >= 2, on which Q has a nonzero zero.  There an
    odd-dimensional polar gram is always singular, so an odd quadratic
    restriction raises ValueError; the theorems have none.

    The type of a non-degenerate even restriction is one invariant.  For odd
    q it is the discriminant's square class: type +1 iff (-1)^(e/2) det(gram)
    is a square, since the polar gram is twice Q's symmetric matrix and 2^e
    is a square.  For even q it is the Arf invariant (_arf): type +1 iff it
    is x^2 + x for some x.
    """
    fld = r.field
    if r.kind != forms.ORTHOGONAL:
        return True if det(r.gram, fld) else None
    if r.e % 2:
        raise ValueError(f"classify decides quadratic restrictions of even dimension, got {r.e}")
    if fld.p == 2:
        arf = _arf(r)
        if arf is None:
            return None
        return 1 if any(fld.add(fld.mul(x, x), x) == arf for x in fld.elements()) else -1
    disc = det(r.gram, fld)
    if not disc:
        return None
    if r.e % 4:
        disc = fld.neg(disc)
    return 1 if disc in squares(fld) else -1


def _arf(r: RestrictedForm) -> int | None:
    """The Arf invariant sum Q(a) Q(b) of a restriction in characteristic 2,
    or None if it is degenerate.

    Take a pair (a, b), b scaled so that B(a, b) = 1, and replace each other
    basis vector v by v + lam a + mu b, lam = B(v, b) and mu = B(v, a), which
    is orthogonal to both: Q(v) gains lam^2 Q(a) + mu^2 Q(b) + lam mu, and
    B(v, w) gains lam B(a, w) + mu B(b, w).  Repeat on the rest.  A vector
    a with no partner b lies in the polar radical.
    """
    fld = r.field
    add, mul = fld.add, fld.mul
    gram, quad = [list(row) for row in r.gram], list(r.qdiag)
    rest, arf = list(range(r.e)), 0
    while rest:
        a = rest.pop()
        b = next((v for v in rest if gram[a][v]), None)
        if b is None:
            return None
        rest.remove(b)
        c = fld.inv(gram[a][b])
        quad[b], gram[b] = mul(mul(c, c), quad[b]), fld.scale(c, gram[b])
        arf = add(arf, mul(quad[a], quad[b]))
        for v in rest:
            lam, mu = mul(c, gram[v][b]), gram[v][a]
            lift = add(add(mul(mul(lam, lam), quad[a]), mul(mul(mu, mu), quad[b])), mul(lam, mu))
            quad[v] = add(quad[v], lift)
            pairs = zip(gram[v], gram[a], gram[b])
            gram[v] = [add(x, add(mul(lam, y), mul(mu, z))) for x, y, z in pairs]
    return arf


def enumerate_subspaces(d: int, e: int, fld: Field):
    """Every e-subspace of (F_q)^d once, as a Subspace, in linalg.members' order.

    Built as that order is defined, not per row: pivot patterns
    lexicographically, then one odometer over all the free entries.
    """
    if not 0 <= e <= d:
        raise ValueError(f"need 0 <= e <= d, got e={e}, d={d}")
    for pattern in combinations(range(d), e):
        free = [(i, j) for i, c in enumerate(pattern) for j in range(c + 1, d) if j not in pattern]
        rows = [[int(j == c) for j in range(d)] for c in pattern]
        for values in product(fld.elements(), repeat=len(free)):
            for (i, j), v in zip(free, values):  # every free entry is overwritten
                rows[i][j] = v
            yield Subspace(d, tuple(map(tuple, rows)), pattern)


def rref(rows, fld: Field):
    """Reduced row echelon form: (rref_rows, pivot_cols), zero rows dropped.

    The rank is len(pivot_cols).  Each pivot row is scaled to lead with 1
    and clears its column in every other row.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for pr in range(r, len(work)):
            if work[pr][c]:
                break
        else:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = fld.inv(work[r][c])
        if inv != 1:
            work[r] = fld.scale(inv, work[r])
        row_r = work[r]  # zero before column c
        for i, row_i in enumerate(work):
            if i != r and row_i[c]:
                work[i] = fld.sub_scaled(row_i, row_i[c], row_r)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(work[i]) for i in range(r)), tuple(pivots)


def nullspace(rows, fld: Field, ncols: int) -> Subspace:
    """Canonical basis of {v : sum_j rows[i][j] v_j = 0 for all i}."""
    red, pivots = rref(rows, fld)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = fld.neg(red[i][f])
        basis.append(v)
    return subspace_from_rows(basis, fld, ncols)


def points(fld: Field, s) -> list:
    """Ids of the (q^e - 1)/(q - 1) points of member s, as linalg.complement_rows sees them."""
    ((head, last),) = linalg._split_points(fld, [s])
    return head + last


def _gram_times(form: ClassicalForm, y) -> list:
    """G conj(y) for the form's gram G; conj is the identity unless hermitian."""
    fld = form.field
    if form.kind == forms.HERMITIAN:
        y = tuple(fld.conj(v) for v in y)
    return [fld.dot(row, y) for row in form.gram]


def bilinear(form: ClassicalForm, x, y) -> int:
    """B(x, y) = x^T G conj(y); conjugate-linear in y if hermitian."""
    return form.field.dot(x, _gram_times(form, y))


def restrict(form: ClassicalForm, s: Subspace) -> RestrictedForm:
    """The form on the basis of s: its gram (polar, if orthogonal) and Q values."""
    if s.d != form.d:
        raise ValueError(f"ambient mismatch: subspace in dim {s.d}, form on dim {form.d}")
    images = [_gram_times(form, y) for y in s.basis]
    gram = tuple(tuple(form.field.dot(x, image) for image in images) for x in s.basis)
    qdiag = None
    if form.kind == forms.ORTHOGONAL:
        qdiag = tuple(quad_value(form, row) for row in s.basis)
    return RestrictedForm(form.kind, s.e, form.field, gram, qdiag)


def quad_value(form: ClassicalForm, v) -> int:
    """Q(v) = sum_{i<=j} C_ij v_i v_j for the upper-triangular coefficient grid C."""
    fld = form.field
    acc = 0
    for i, vi in enumerate(v):
        if not vi:
            continue
        row = form.quad[i]
        for j in range(i, form.d):
            if row[j] and v[j]:
                acc = fld.add(acc, fld.mul(row[j], fld.mul(vi, v[j])))
    return acc


def restricted_quad_value(r: RestrictedForm, v) -> int:
    """Q(sum_i v_i b_i) = sum_i Q(b_i) v_i^2 + sum_{i<j} B(b_i, b_j) v_i v_j."""
    fld = r.field
    acc = 0
    for i, vi in enumerate(v):
        acc = fld.add(acc, fld.mul(r.qdiag[i], fld.mul(vi, vi)))
        for j in range(i + 1, r.e):
            acc = fld.add(acc, fld.mul(r.gram[i][j], fld.mul(vi, v[j])))
    return acc


def radical_nondegenerate(r: RestrictedForm) -> bool:
    """Non-degeneracy of a quadratic restriction, odd dimensions included:
    degenerate iff some point of the polar radical is singular."""
    fld = r.field
    radical = nullspace(r.gram, fld, r.e)
    for rep in projective_reps(radical.e, fld.q):
        v = [fld.dot(rep, col) for col in zip(*radical.basis)]
        if restricted_quad_value(r, v) == 0:
            return False
    return True


def complementary(s1: Subspace, s2: Subspace, fld: Field) -> bool:
    """True iff s1 + s2 has dimension e1 + e2 (trivial intersection), by
    eliminating s2's rows against s1's RREF rows."""
    if s1.d != s2.d:
        raise ValueError(f"ambient mismatch: {s1.d} != {s2.d}")
    if s1.e + s2.e > s1.d:
        return False
    by_pivot = dict(zip(s1.pivots, s1.basis))
    for r in s2.basis:
        lead = None
        for j in range(s1.d):
            if not r[j]:
                continue
            piv = by_pivot.get(j)
            if piv is None:
                lead = j
                break
            r = fld.sub_scaled(r, r[j], piv)  # piv is zero before column j
        if lead is None:
            return False
        inv = fld.inv(r[lead])
        by_pivot[lead] = fld.scale(inv, r) if inv != 1 else r
    return True


def complementary_bits(rows1, rows2) -> bool:
    """complementary over F_2, on bitmask rows: rows2 eliminated against rows1."""
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


def pair_test(fld: Field):
    """Complementarity of members(..., fld), curried: pair_test(fld)(rows1)(rows2).

    Members are tuples of RREF rows; two meet trivially iff all their rows
    together are independent.
    """
    if fld.q == 2:
        return lambda rows1: lambda rows2: complementary_bits(rows1, rows2)
    return lambda rows1: lambda rows2: len(rref(rows1 + rows2, fld)[1]) == len(rows1) + len(rows2)


def coord_subspace(d: int, cols) -> Subspace:
    """The span of the unit vectors e_c, c in cols (increasing), in (F_q)^d."""
    return Subspace(d, tuple(tuple(int(j == c) for j in range(d)) for c in cols), tuple(cols))


def subspace_from_rows(rows, fld: Field, d: int) -> Subspace:
    """The span of `rows` in (F_q)^d, as a canonical subspace."""
    red, piv = rref(rows, fld)
    return Subspace(d, red, piv)


def perp(form: ClassicalForm, s: Subspace) -> Subspace:
    """{v : B(v, b) = 0 for every basis vector b of s}, as a canonical subspace."""
    return nullspace([_gram_times(form, b) for b in s.basis], form.field, form.d)


def rref_bits(rows) -> tuple:
    """(rref bitmask rows, pivot columns) over F_2; zero rows dropped.

    A row's pivot is its lowest set bit.  Each row is reduced against the
    pivot rows found before it, then each pivot column is cleared from the
    other rows, highest pivot first.
    """
    basis = {}  # lowest set bit -> row
    for r in rows:
        while r and (r & -r) in basis:
            r ^= basis[r & -r]
        if r:
            basis[r & -r] = r
    for a in sorted(basis, reverse=True):
        for b in basis:
            if b != a and basis[b] & a:
                basis[b] ^= basis[a]
    lows = sorted(basis)
    return tuple(basis[b] for b in lows), tuple(b.bit_length() - 1 for b in lows)


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


def quad_values_gf2(form: ClassicalForm) -> tuple:
    """Q on all 2^d bitmask vectors over F_2, one quad_value call each."""
    return tuple(
        quad_value(form, [(v >> j) & 1 for j in range(form.d)]) for v in range(1 << form.d)
    )


def bilinear_masks_gf2(form: ClassicalForm) -> tuple:
    """mask m(y) per vector y with B(x, y) = parity(x & m(y)); q = 2 only."""
    d = form.d
    col_masks = [sum(1 << t for t in range(d) if form.gram[t][s]) for s in range(d)]
    table = [0] * (1 << d)
    for y in range(1, 1 << d):
        low = y & -y
        table[y] = table[y ^ low] ^ col_masks[low.bit_length() - 1]
    return tuple(table)


def classify_orthogonal_gf2(qt, rows: tuple) -> int | None:
    """None if the span of bitmask rows (even count) is degenerate under the
    quadratic form with Q table qt, else its type +-1: full rank of the polar
    gram, then the number of singular nonzero vectors of the span."""
    e = len(rows)
    gram_rows = [
        sum(1 << j for j, rj in enumerate(rows) if qt[ri ^ rj] ^ qt[ri] ^ qt[rj])
        for ri in rows
    ]
    if rank_bits(gram_rows) != e:
        return None
    span = [0] * (1 << e)
    singular = 0
    for idx in range(1, 1 << e):
        low = idx & -idx
        span[idx] = span[idx ^ low] ^ rows[low.bit_length() - 1]
        singular += not qt[span[idx]]
    return type_by_count(singular, e, 2)


def symplectic_nondeg_gf2(bil: tuple, rows: tuple) -> bool:
    """Full-rank test of the restricted alternating gram, on bitmask rows."""
    gram_rows = [
        sum(1 << j for j, rj in enumerate(rows) if (ri & bil[rj]).bit_count() & 1) for ri in rows
    ]
    return rank_bits(gram_rows) == len(rows)


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


def projective_reps(e: int, q: int) -> list:
    """One representative per 1-space of (F_q)^e: first nonzero coordinate 1."""
    return [(0,) * t + (1,) + tail for t in range(e) for tail in product(range(q), repeat=e - 1 - t)]


def singular_count(r: RestrictedForm) -> int:
    """Nonzero singular vectors of a quadratic restriction, point by point
    (Q(c v) = c^2 Q(v), so each singular point has q - 1 of them)."""
    q = r.field.q
    return (q - 1) * sum(restricted_quad_value(r, rep) == 0 for rep in projective_reps(r.e, q))


def singular_point_counts(m: int, q: int) -> tuple:
    """(plus, minus) totals of nonzero singular vectors of a non-degenerate
    quadratic form of type +1, -1 in dimension 2m."""
    return (q**m - 1) * (q ** (m - 1) + 1), (q**m + 1) * (q ** (m - 1) - 1)


def type_by_count(singular: int, e: int, q: int) -> int:
    """The type whose closed-form total is `singular`; ArithmeticError if neither's is."""
    plus, minus = singular_point_counts(e // 2, q)
    if singular == plus:
        return 1
    if singular == minus:
        return -1
    raise ArithmeticError(f"singular count {singular} matches neither type (e {e}, q {q})")


def orthogonal_type_by_count(r: RestrictedForm) -> int:
    """The type classify gives a non-degenerate even quadratic
    restriction, by exhaustion: the singular count against the two
    closed-form totals."""
    return type_by_count(singular_count(r), r.e, r.field.q)


def det_by_permutations(rows, fld: Field) -> int:
    """The Leibniz sum over permutations p of sign(p) prod_i rows[i][p(i)]."""
    n, acc = len(rows), 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = fld.mul(term, rows[i][j])
        odd = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2)) % 2
        acc = fld.add(acc, fld.neg(term) if odd else term)
    return acc


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


def mat_mul(a, b) -> list:
    """The dense product of two matrices given as lists of rows."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def dense_factor_product(m, lams) -> list:
    """prod_j (m - lams[j] I) as a dense matrix, through mat_mul."""
    prod = None
    for lam in lams:
        factor = [[v - lam if r == c else v for c, v in enumerate(row)] for r, row in enumerate(m)]
        prod = factor if prod is None else mat_mul(prod, factor)
    return prod


def omega_product(base: int, e: int) -> Fraction:
    """prod_{i=1}^{e} (1 - base^(-i)), one Fraction factor at a time."""
    out = Fraction(1)
    for i in range(1, e + 1):
        out *= 1 - Fraction(1, base**i)
    return out


def bq_product(base: int, e1: int, e2: int) -> Fraction:
    """omega(base, e1) * omega(base, e2) / omega(base, e1 + e2) from the product form."""
    return omega_product(base, e1) * omega_product(base, e2) / omega_product(base, e1 + e2)


def lambda_product(sigma1: int, eps: int, m1: int, m2: int, q: int) -> Fraction:
    """(1 + sigma1 q^-m1)(1 + eps*sigma1 q^-m2) / (2 (1 + eps q^-(m1+m2))), factor by factor."""
    num = (1 + Fraction(sigma1, q**m1)) * (1 + Fraction(eps * sigma1, q**m2))
    return num / (2 * (1 + Fraction(eps, q ** (m1 + m2))))


def mixing_radicand(alpha1, alpha2, d: int, q: int) -> Fraction:
    """(1/alpha1 - 1)(1/alpha2 - 1)/q^d, the mixing bound's radicand, as the display writes it."""
    return (1 / Fraction(alpha1) - 1) * (1 / Fraction(alpha2) - 1) / Fraction(q) ** d


def compare_by_subtraction(x, t) -> int:
    """exactnum.compare's general rule for any surd x: with a' = a - t, the
    common sign of a' and b when they agree, else the sign of the larger of
    a'^2 and b^2*base."""
    a, b = x.a - t, x.b
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    gap = a * a - b * b * x.base
    return sa if gap > 0 else sb if gap < 0 else 0
