"""Classical forms on (F_q)^d: standard models and the member classifier of
partition builds.

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

A partition build codes every member of a pivot pattern (verdicts) through
classifier, made once per build, with one engine for every field: each
member counts its singular points (orthogonal, and symplectic in
characteristic 2) or its radical points (symplectic otherwise, hermitian),
and verdicts_by_count maps the count to the member's code by the closed
forms.  Only the per-candidate values depend on the field, and of them
only the pairing B(b, y) and own(b) (_values): over F_2 they come from the
build's Q table on bitmask rows (quad_table_gf2), elsewhere from row images
b^T G.  One run builder serves both regimes: a later row's candidates are
read off their generators, so B(b, .) on them is a run of translates,
memoized by its key for the build.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations, repeat
from math import prod
from operator import add, or_, pos, xor
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
        """Q(v) = v^T C v for the coefficients C (_coefficients: a symplectic
        form's quadratic form has polar form G in characteristic 2)."""
        if self.kind == HERMITIAN:
            raise ValueError("no quadratic form on a hermitian space")
        dot = self.field.dot
        return dot(v, [dot(row, v) for row in _coefficients(self)])


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
    """The verdict of member code k: 0 degenerate (None), 1 type +1 (True
    unless orthogonal), 2 type -1; k > 0 keys a bucket."""
    return (None, 1, -1) if kind == ORTHOGONAL else (None, True)


def _counts_singular(kind: str, q: int) -> bool:
    """Whether members over F_q count singular points (else radical points)."""
    return kind == ORTHOGONAL or (kind == SYMPLECTIC and q % 2 == 0)


def verdicts_by_count(kind: str, e: int, q: int) -> dict:
    """Counted points -> member code (verdicts), for e-spaces over F_q, e >= 1.

    An orthogonal member counts its singular points, and so does a symplectic
    one in characteristic 2, through Q = sum_{i<j} G_ij x_i x_j, whose polar
    form is the gram G.  A quadratic e-space is W + R, R the polar radical
    and W non-degenerate of dimension 2m and type sigma (+1 if m = 0).  Its
    singular vectors, 0 included, number q^(e-1) + sigma (q^(e-m) - q^(e-m-1)),
    or exactly q^(e-1) if W has odd dimension (odd q) or Q is not zero on R
    (characteristic 2).  These counts are pairwise distinct, and the member
    is non-degenerate iff 2m = e.  Every other member counts the points of
    its radical, (q^r - 1)/(q - 1) for a radical of dimension r, and is
    non-degenerate iff r = 0.
    """
    if not _counts_singular(kind, q):
        return {(q**r - 1) // (q - 1): int(r == 0) for r in range(e + 1)}
    code = verdicts(kind).index
    vectors = {q ** (e - 1): 0}
    for m in range(e // 2 + 1):
        for sigma in (1, -1) if m else (1,):
            nondegenerate = code(sigma if kind == ORTHOGONAL else True) if 2 * m == e else 0
            vectors[q ** (e - 1) + sigma * (q ** (e - m) - q ** (e - m - 1))] = nondegenerate
    return {(v - 1) // (q - 1): c for v, c in vectors.items()}


def _coefficients(form: ClassicalForm):
    """Q's upper-triangular coefficients; for a symplectic form, those of
    sum_{i<j} G_ij x_i x_j, whose polar form is G in characteristic 2."""
    return form.quad or [[g * (j > i) for j, g in enumerate(r)] for i, r in enumerate(form.gram)]


def quad_table_gf2(form: ClassicalForm) -> bytes:
    """Q on all 2^d bitmask vectors of an orthogonal or symplectic form over F_2.

    With i the lowest coordinate of v, Q(v) = Q(v - e_i) + sum_{j >= i} c_ij v_j.
    """
    if form.q != 2 or form.kind == HERMITIAN:
        raise ValueError("quad table needs a bilinear form over F_2")
    masks = [sum(c << j for j, c in enumerate(row)) for row in _coefficients(form)]
    table = bytearray(1 << form.d)
    for v in range(1, 1 << form.d):
        i = (v & -v).bit_length() - 1
        table[v] = table[v ^ (1 << i)] ^ ((v & masks[i]).bit_count() & 1)
    return bytes(table)


# -- the lane engine: every member of a pivot pattern counted at once --------

_ORDER = "little"
_FLUSH = 255  # points a byte counter takes before it flushes into the wide counts
_NONZERO = bytes(map(bool, range(256)))


class _Lanes:
    """Field elements, one per byte lane, added as whole ints: by XOR in
    characteristic 2; for odd p each base-p digit has a slot of 8/k bits
    (nibbles for F_9 and F_25) that holds a sum of three digits, and the
    translate `reduced` (empty in characteristic 2) turns digit sums back
    into elements."""

    def __init__(self, fld: Field):
        p, k, self.fld = fld.p, fld.k, fld
        width = 1 if p == 2 else 8 // k
        self.enc = [sum(x // p**i % p << width * i for i in range(k)) for x in fld.elements()]
        sums = [0]  # per byte u of digit sums, its element: digit i of u is slot i, lowest first
        for i in range(k * (p > 2)):
            sums = [x + d % p * p**i for d in range(1 << width) for x in sums]
        self.reduced = bytes(map(self.enc.__getitem__, sums)) if p > 2 else b""

    def table(self, f) -> bytes:
        """The translate table of the map f on elements."""
        out = bytearray(256)
        for x in self.fld.elements():
            out[self.enc[x]] = self.enc[f(x)]
        return bytes(out)


def _values(form: ClassicalForm, lanes: _Lanes) -> tuple:
    """owns and runs (see _gram_lanes), with own(b) and the pairing B(b, y)
    the only parts that depend on the field: over F_2, own(b) = Q(b) and
    B(b, y) = Q(b ^ y) ^ Q(b) ^ Q(y) from the build's Q table on bitmask rows
    (quad_table_gf2); elsewhere B(b, y) = sum_t h_t conj(y_t) from the row
    image h = b^T G (conj the identity unless hermitian), where a unit
    vector e_c reads h_c, one entry.
    A later row's candidates y_0 + sum_t a_t g_t run in odometer order,
    fastest digit first, with g_t = ys[q^t] - ys[0], so B(b, .) on them is
    B(b, y_0) plus conj(a_t) B(b, g_t) per digit: a run of translates,
    shared by every b with those values.  Images and runs are held for one
    build."""
    fld = form.field
    scalars = list(map(fld.conj, fld.elements())) if form.kind == HERMITIAN else fld.elements()
    shift = [lanes.table(partial(fld.add, c)) for c in fld.elements()]
    memo = {}  # a run's key -> the run
    if fld.q == 2:
        qt = quad_table_gf2(form)
        zero = 0
        own = qt.__getitem__

        def reader(y, y0) -> tuple:  # y - y0 and its Q
            return y ^ y0, qt[y ^ y0]

        def pairing(b, readers) -> list:
            qb = qt[b]
            return [qt[b ^ r] ^ qb ^ qr for r, qr in readers]

    else:
        columns = tuple(zip(*form.gram))
        singular = _counts_singular(form.kind, fld.q)
        conj = fld.conj if form.kind == HERMITIAN else None
        images = {}  # b -> (b^T G, own(b))
        zero = (0,) * form.d

        def image(b) -> tuple:
            if b not in images:
                h = tuple(fld.dot(col, b) for col in columns)
                value = form.quad_value(b) if singular else fld.dot(h, map(conj, b)) if conj else 0
                images[b] = (h, value)
            return images[b]

        def own(b) -> int:
            return image(b)[1]

        def reader(y, y0) -> int | tuple:  # c if y - y0 is the unit vector e_c, else conj(y - y0)
            moved = [t for t, (a, b) in enumerate(zip(y, y0)) if a != b]
            if len(moved) == 1 and fld.sub(y[moved[0]], y0[moved[0]]) == 1:
                return moved[0]
            return tuple(map(conj or pos, map(fld.sub, y, y0)))

        def pairing(b, readers) -> list:
            h = image(b)[0]
            return [fld.dot(h, r) if type(r) is tuple else h[r] for r in readers]

    lane = [bytes([lanes.enc[x]]) for x in fld.elements()]  # one lane holding x

    def owns(xs: list, stride: int) -> list:
        return [lane[own(x)] * stride for x in xs]

    def runs(xs: list, ys: list, stride: int, times: int) -> list:
        y0, at = ys[0], 1
        readers = [reader(y0, zero)]
        while at < len(ys):
            readers.append(reader(ys[at], y0))
            at *= fld.q
        out = []
        for x in xs:
            key = (stride, *pairing(x, readers))
            if key not in memo:
                run = lane[key[1]] * stride
                for ht in key[2:]:
                    run = b"".join([run.translate(shift[fld.mul(a, ht)]) for a in scalars])
                memo[key] = run
            out.append(memo[key] * times)
        return out

    return owns, runs


def _gram_lanes(candidates: list, owns, runs, mirror: bytes | None) -> dict:
    """(i, j) -> the lanes of B(b_i, b_j), (i, i) -> those of own(b_i), Q(b) if
    singular points count, else B(b, b), over product(*candidates) in order.
    owns(xs, s) and runs(xs, ys, s, t) give per x own(x) and B(x, y), y in ys,
    each value s times, all t times; B(b_j, b_i) is B(b_i, b_j) mirrored."""
    n, e = prod(map(len, candidates)), len(candidates)
    strides = [prod(map(len, candidates[i + 1 :])) for i in range(e)]  # lanes per candidate
    gram = {(i, i): b"".join(owns(rows, strides[i])) * (n // (strides[i] * len(rows)))
            for i, rows in enumerate(candidates)}
    for i, j in combinations(range(e), 2):
        between = strides[i] // (strides[j] * len(candidates[j]))
        row_runs = runs(candidates[i], candidates[j], strides[j], between)
        gram[i, j] = b"".join(row_runs) * (n // (strides[i] * len(candidates[i])))
        gram[j, i] = gram[i, j].translate(mirror) if mirror else gram[i, j]
    return gram


def classifier(form: ClassicalForm, e: int) -> Callable[[list], bytes]:
    """The function that maps a pivot pattern's row candidates to one code
    (verdicts) per member of product(*candidates), in that order, 1 <= e <= d.

    A member b_0, ..., b_{e-1} counts the points <v> of its span with Q(v) != 0
    (if singular points count) or v outside its radical; verdicts_by_count
    maps the count to the code, or ArithmeticError is raised.  All members
    count at once, one byte lane each (_gram_lanes), over v = b_l +
    sum_{j>l} c_j b_j per l in modular p-ary Gray-code order: a move adds g b_m,
    so Q(v) gains g^2 Q(b_m) + g B(v, b_m) and B(v, b_j) gains g B(b_m, b_j).
    """
    fld, q, p, k = form.field, form.field.q, form.field.p, form.field.k
    singular = _counts_singular(form.kind, q)
    lanes = _Lanes(fld)
    owns, runs = _values(form, lanes)
    mirror = None if singular else lanes.table({SYMPLECTIC: fld.neg, HERMITIAN: fld.conj}[form.kind])
    points = (q**e - 1) // (q - 1)
    code = {points - c: v for c, v in verdicts_by_count(form.kind, e, q).items()}
    table = bytes(map(code.get, range(min(points + 1, 256)), repeat(255))).ljust(256, b"\xff")
    gens = [p**t for t in range(k)]  # the additive generators of F_q
    refs: dict = {(0, 0, 0): 0}  # (c, i, j) -> index: lanes of c B(b_i, b_j), c own(b_i) if i = j

    def index(c, i, j) -> int:  # B is symmetric unless mirrored; lane 0 is zero
        return refs.setdefault((c, i, j) if mirror or i < j else (c, j, i), len(refs)) if c else 0

    program = []  # per l: the lanes of the state and value, each kind of move, the path
    counted = 0
    for l in range(e):
        # the state: g B(v, b_j) per generator g and later row j, else B(v, b_j) per row j
        slots = [(g, j) for j in range(l + 1, e) for g in gens]
        slots = slots if singular else [(1, j) for j in range(e)]
        digits, path, steps = k * (e - 1 - l), [], []
        for t in range(digits):  # move s adds 1 to digit v_p(s) of the c_j
            path = (path + [t]) * (p - 1) + path
        for back, t in map(divmod, range(digits), repeat(k)):  # digit back k + t: p^t b_m
            m, g = e - 1 - back, gens[t]
            # (gain, slot, adds), with B(b_m, b_m) = 2 Q(b_m) if singular points count
            twice = [fld.add(h, h) if singular and j == m else h for h, j in slots]
            adds = [index(fld.mul(c, g), m, j) for c, (_, j) in zip(twice, slots)]
            steps.append((index(fld.mul(g, g), m, m), slots.index((g, m)) if singular else 0, adds))
        moves = len(path)
        for u in reversed(range(_FLUSH - counted, moves + 1, _FLUSH)):
            if u:  # a None flushes the byte counters before point u of the block, 0 its start
                path.insert(u - 1, None)
            else:
                program[-1][3].append(None)
        counted = (counted + moves) % _FLUSH + 1  # points on the counters after the block
        program.append(([index(g, l, j) for g, j in slots], index(1, l, l), steps, path))
    reduced = lanes.reduced
    mul = {c: lanes.table(partial(fld.mul, c)) for c in {c for c, _, _ in refs if c > 1}}  # scaling

    def codes(candidates: list) -> bytes:
        n = prod(map(len, candidates))
        gram = _gram_lanes(candidates, owns, runs, mirror)
        ints = [c and int.from_bytes(gram[i, j].translate(mul[c]) if c > 1 else gram[i, j], _ORDER)
                for c, i, j in refs]

        def plus(a: int, b: int) -> int:
            return int.from_bytes((a + b).to_bytes(n, _ORDER).translate(reduced), _ORDER)

        def flag(v: int) -> int:  # 1 in every nonzero lane
            return int.from_bytes(v.to_bytes(n, _ORDER).translate(_NONZERO), _ORDER)

        plus = plus if reduced else xor
        flag = pos if q == 2 else flag  # over F_2 the lanes are their own flags
        counted, wide, lane = 0, None, ints.__getitem__
        for init, own_ref, steps, path in program:
            state = list(map(lane, init))
            value = ints[own_ref] if singular else reduce(or_, state)
            steps = [(ints[g], slot, list(map(lane, adds))) for g, slot, adds in steps]
            counted += flag(value)
            for move in path:
                if move is None:  # the byte counters flush into the wide counts
                    wide = list(map(add, wide or repeat(0, n), counted.to_bytes(n, _ORDER)))
                    counted = 0
                    continue
                gain, slot, adds = steps[move]
                if singular:
                    value = plus(plus(value, gain), state[slot])
                state = list(map(plus, state, adds))
                if not singular:
                    value = reduce(or_, state)
                counted += flag(value)
        counts = counted.to_bytes(n, _ORDER)
        if wide is None:
            out = counts.translate(table)
        else:
            out = bytes(map(code.get, map(add, wide, counts), repeat(255)))
        if 255 in out:
            raise ArithmeticError(f"a lane count matches no verdict ({form.kind}, e = {e})")
        return out

    return codes
