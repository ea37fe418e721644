"""Classical forms on (F_q)^d: standard models, restricted-form classification
and the member classifiers of partition builds.

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
orthogonal) and Q on each basis row.  classify gives one verdict per
restriction: None if it is degenerate, else True, or its type +1 or -1 if
it is orthogonal.  Non-degeneracy is a nonzero gram determinant (a
full-rank gram).
For an even-dimensional quadratic restriction that agrees with the radical
refinement (degenerate iff some nonzero vector of the polar radical is
singular) in every characteristic: in characteristic 2 the polar form is
alternating, so a degenerate one has a radical of dimension >= 2, on which
Q has a nonzero zero.  There an odd-dimensional polar gram is always
singular, so classify refuses odd quadratic restrictions; the theorems
have none.

The type of a non-degenerate even restriction is one invariant.  For odd
q it is the discriminant's square class: type +1 iff (-1)^(e/2) det(gram)
is a square, since the polar gram is twice Q's symmetric matrix and 2^e is
a square; one determinant decides both questions.  For even q it is the
Arf invariant: symplectic elimination (_arf) splits the basis into pairs
(a, b) with B(a, b) = 1, each orthogonal to the rest, and sums Q(a) Q(b);
type +1 iff the sum is x^2 + x for some x.  A basis vector left with no
partner lies in the polar radical, so the same elimination finds a
degenerate restriction.

A partition build codes every member of a pivot pattern (verdicts) through
classifier, made once per build: over F_2 the lanes (lane_classifier_gf2)
on the build's own Q table, elsewhere the walk (_walk), which classifies
each distinct restricted form once.
"""

from __future__ import annotations

import struct
import sys
from itertools import combinations, repeat
from math import prod
from operator import itemgetter, mul, xor
from typing import Callable, NamedTuple

from .exactnum import HERMITIAN, ORTHOGONAL, SYMPLECTIC  # noqa: F401 (re-exported)
from .gf import Field, field
from .linalg import det


class ClassicalForm(NamedTuple):
    kind: str
    d: int
    q: int  # the defining parameter: ambient field is F_q, or F_{q^2} if hermitian
    field: Field
    gram: tuple  # bilinear/sesquilinear gram; polar form in the orthogonal case
    quad: tuple | None  # upper-triangular Q coefficients, orthogonal only
    eps: int | None  # declared type of the orthogonal standard model

    def quad_value(self, v) -> int:
        if self.kind != ORTHOGONAL:
            raise ValueError(f"no quadratic form on a {self.kind} space")
        dot = self.field.dot
        return dot(v, [dot(row, v) for row in self.quad])  # v^T C v


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
    raise ArithmeticError(f"no anisotropic plane over F_{fld.q}")


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
        if eps == -1:
            quad[d - 2][d - 2] = 1
            quad[d - 2][d - 1] = 1
            quad[d - 1][d - 1] = anisotropic_delta(fld)
        quad = tuple(tuple(r) for r in quad)
        # polar gram C + C^T: C is zero below the diagonal
        gram = tuple(tuple(fld.add(quad[i][j], quad[j][i]) for j in range(d)) for i in range(d))
        form = ClassicalForm(kind, d, q, fld, gram, quad, eps)
        if not det(gram, fld):
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
        return ClassicalForm(kind, d, q, fld, gram, None, None)
    if kind == HERMITIAN:
        if d < 1:
            raise ValueError(f"hermitian model needs d >= 1, got {d}")
        fld = field(q * q)
        gram = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        return ClassicalForm(kind, d, q, fld, gram, None, None)
    raise ValueError(f"unknown kind {kind!r}")


def verdicts(kind: str) -> tuple:
    """The verdict of member code k, in both partition classifiers: 0 degenerate
    (None), 1 type +1 (True unless orthogonal), 2 type -1; k > 0 keys a bucket."""
    return (None, 1, -1) if kind == ORTHOGONAL else (None, True)


def classify(r: RestrictedForm):
    """None if r is degenerate, else its type: +1 or -1 if orthogonal, True otherwise.

    An odd quadratic restriction raises ValueError.
    """
    fld = r.field
    if r.kind != ORTHOGONAL:
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
    return 1 if disc in fld.squares else -1


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


# -- member classifiers: one code per member of a pivot pattern -------------


def classifier(form: ClassicalForm, e: int) -> Callable[[list], bytes]:
    """The function that maps a pivot pattern's row candidates to one code per
    member of product(*candidates), in that order, as verdicts(form.kind)
    spells them out, for the e-subspaces of every field, 1 <= e <= d."""
    if form.field.q == 2:
        return lane_classifier_gf2(form, e)
    return _walk(form, e)


def _decode(form: ClassicalForm, columns) -> RestrictedForm:
    """The form restricted to a member's basis, from its generic-field key.

    Column j holds B(b_i, b_j) for i < j, then Q(b_j) if orthogonal, else
    B(b_j, b_j).  Below the diagonal the gram is the transpose, negative
    (symplectic) or conjugate (hermitian) of the upper triangle; the
    orthogonal (polar) diagonal is 2 Q(b_j).
    """
    fld = form.field
    mirror = {SYMPLECTIC: fld.neg, HERMITIAN: fld.conj}.get(form.kind, lambda v: v)
    e = len(columns)
    gram = [[0] * e for _ in range(e)]
    qdiag = []
    for j, (*above, own) in enumerate(columns):
        for i, v in enumerate(above):
            gram[i][j] = v
            gram[j][i] = mirror(v)
        if form.kind == ORTHOGONAL:
            qdiag.append(own)
            own = fld.add(own, own)
        gram[j][j] = own
    qdiag = tuple(qdiag) if form.kind == ORTHOGONAL else None
    return RestrictedForm(form.kind, e, fld, tuple(map(tuple, gram)), qdiag)


class _RowImages(dict):
    """Row b -> (b^T G, conj(b), own entry) for one partition build's generic keys.

    With h = b^T G (G the ambient gram), B(b, x) = dot(h, conj(x)), where
    conj is the identity unless the form is hermitian.  The own entry is
    Q(b) if the form is orthogonal and B(b, b) otherwise.  It holds one
    entry per distinct row, at most (q^d - 1)/(q - 1).
    """

    def __init__(self, form: ClassicalForm):
        super().__init__()
        self.form = form
        self.columns = tuple(zip(*form.gram))

    def __missing__(self, b) -> tuple:
        form, fld = self.form, self.form.field
        h = tuple(fld.dot(col, b) for col in self.columns)
        cb = tuple(map(fld.conj, b)) if form.kind == HERMITIAN else b
        own = form.quad_value(b) if form.kind == ORTHOGONAL else fld.dot(h, cb)
        image = self[b] = (h, cb, own)
        return image


class _Verdicts(dict):
    """Last column -> member code (verdicts) under one prefix's columns,
    classified on its first lookup: once per distinct restricted form."""

    def __init__(self, form: ClassicalForm, columns: tuple):
        super().__init__()
        self.form, self.columns = form, columns

    def __missing__(self, tail) -> int:
        verdict = classify(_decode(self.form, (*self.columns, tail)))
        code = self[tail] = verdicts(self.form.kind).index(verdict)
        return code


def _walk(form: ClassicalForm, e: int) -> Callable[[list], bytes]:
    """The classifier of e-subspaces off F_2, for e >= 1.

    A member is keyed by one column per basis row b_j: the bytes B(b_i, b_j)
    for each earlier row b_i, then Q(b_j) if orthogonal, else B(b_j, b_j).
    Per pattern, the entries B(b, x) of each candidate b of row i against the
    candidates x of each later row j are computed once, into b's table row
    at index j.  Prefixes (every row but the last) extend lazily, one row at
    a time (_extend).  Codes are memoized per prefix's columns, then per
    last column (_Verdicts).
    """
    fld = form.field
    images = _RowImages(form)
    dot, p = fld.dot, fld.p
    memo: dict = {}

    def pairs(b, conjugates) -> list:
        h = images[b][0]
        if fld.k == 1:  # one C-level sum per entry, not a Field.dot loop
            return [sum(map(mul, h, x)) % p for x in conjugates]
        return [dot(h, x) for x in conjugates]

    def codes(candidates: list) -> bytes:
        conjugates = [[images[x][1] for x in rows] for rows in candidates]
        owns = [[images[x][2] for x in rows] for rows in candidates]
        prefixes = [((), ())]
        for i in range(e - 1):
            table = [[pairs(b, conjugates[j]) for b in candidates[i]] for j in range(i + 1, e)]
            rows = list(zip(*[repeat(None)] * (i + 1), *table))  # one table row per candidate
            prefixes = _extend(prefixes, i, owns[i], rows)
        last = itemgetter(e - 1)
        out = bytearray()
        for columns, path in prefixes:
            seen = memo.get(columns)
            if seen is None:
                seen = memo[columns] = _Verdicts(form, columns)
            out.extend(map(seen.__getitem__, map(bytes, zip(*map(last, path), owns[-1]))))
        return bytes(out)

    return codes


def _extend(prefixes, i: int, owns: list, rows: list):
    """Each prefix, as (its columns, path), followed by each candidate of row
    i, in odometer order.  path holds the table rows of the prefix's
    candidates, rows those of row i's candidates, and owns their own entries."""
    against = itemgetter(i)
    for columns, path in prefixes:
        for key, row in zip(map(bytes, zip(*map(against, path), owns)), rows):
            yield columns + (key,), path + (row,)


# -- GF(2): one count of the vectors with Q = 1 classifies either kind ---------


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
    member of product(*candidates), in that order, as verdicts(form.kind)
    spells them out.  A count with no verdict raises.  A symplectic member
    is non-degenerate iff quad_table_gf2's Q on it is, whatever its type.
    """
    keys, orthogonal = verdicts(form.kind), form.kind == ORTHOGONAL
    code = {c: s and keys.index(s if orthogonal else True) for c, s in verdicts_by_count_gf2(e).items()}
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
