"""Brute-force ground truth: enumerate, count, and spectrally check.

Everything here is exact.  Y-sets are enumerated in the canonical subspace
order and hard-checked against the closed-form counts at construction time;
complementary-pair counting comes in two flavours (all pairs, and the
single-orbit shortcut that fixes one subspace), which must agree wherever
both run.

Members come from linalg.members, so the representation (bitmask-row tuples
over F_2, Subspace objects over other fields) is chosen in linalg.
All-pairs counts and the biadjacency matrix take their rows from
linalg.complement_rows (point incidence); an all-pairs count is the sum of
those rows' popcounts, taken serially in one process.  The single-orbit
count tests one S1 with linalg.pair_test.

A partition build classifies each distinct restricted form (the form on the
member's basis) once and reuses the verdict for every member that restricts
to it.  It is one walk for every field over linalg.row_candidates, in the
canonical order: pivot pattern, then prefix (every row but the last), then
last row.  The key is one column per basis row: the row's entries against
the earlier rows, then its own Q or diagonal value.  A prefix's columns are
computed once, where the walk reaches it, and only the last column once per
member; each prefix row's entries against the later rows' candidates are
computed when the row joins the prefix.  Over other fields the entries come
from a per-build memo of each distinct row's image under the ambient form,
and a verdict decodes the whole restricted form from the key, then asks
forms for non-degeneracy and the orthogonal type.  Over F_2 the verdict reads the
member's bitmask rows.  A member object is built only if it is kept.

The biadjacency matrix of the complementarity graph holds each row as an int
bitmask, so edge counts and the entries of N N^T are popcounts.  The
annihilator product is taken on rows packed into one int each.

The oracle knows no theorem: a caller that judges a proportion passes the
threshold in.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Callable, NamedTuple

from . import exactnum, forms, linalg, spectrum
from .forms import ClassicalForm
from .gf import field

DEFAULT_BIADJACENCY_CAP = 5000


@dataclass(frozen=True)
class YSet:
    form: ClassicalForm
    e: int
    sigma: int | None  # orthogonal subspace type; None for symplectic/hermitian
    members: tuple  # bitmask-row tuples over F_2, Subspace objects otherwise

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CountReport:
    case: dict
    y1_count: int
    y2_count: int
    pairs: int
    proportion: Fraction
    method: str
    threshold: Fraction | None = None
    passed: bool | None = None


class _Classifier(NamedTuple):
    """The restricted-form keys and verdicts of one partition build.

    A key is one column per basis row b_j: the bytes B(b_i, b_j) for each
    earlier row b_i, then b_j's own entry (Q(b_j) if orthogonal, otherwise
    the diagonal B(b_j, b_j)).  Over F_2 the orthogonal column holds
    Q(b_i + b_j) for B(b_i, b_j); that with the Q values determines B.
    prepare(rows) is the per-pattern part for a list of candidate rows,
    pairs(b, prepared) the entries B(b, x) for each of them, and
    verdict(rows, columns) is sigma (+-1) for orthogonal, True for plain
    non-degenerate, None if degenerate.
    """

    prepare: Callable
    pairs: Callable
    verdict: Callable


def _classifier(form: ClassicalForm) -> _Classifier:
    """The keys and verdicts of partition builds over `form`.

    Over F_2 the verdict reads the member's bitmask rows.  Over other fields
    it reads the key alone: the decoded form must pass
    forms.is_nondegenerate, and an orthogonal type comes from
    forms.orthogonal_type.
    """
    fld = form.field
    if fld.q == 2 and form.kind == forms.ORTHOGONAL:
        qt = forms.quad_table_gf2(form)
        return _Classifier(
            lambda rows: (rows, [qt[x] for x in rows]),
            lambda b, prepared: list(map(qt.__getitem__, map(b.__xor__, prepared[0]))),
            lambda rows, _: forms.classify_orthogonal_gf2(qt, rows),
        )
    if fld.q == 2:  # symplectic: hermitian forms live over F_{q^2}
        bil = forms.bilinear_masks_gf2(form)
        return _Classifier(
            # the alternating form's diagonal is 0
            lambda rows: ([bil[x] for x in rows], [0] * len(rows)),
            lambda b, prepared: [(b & m).bit_count() & 1 for m in prepared[0]],
            lambda rows, _: True if forms.symplectic_nondeg_gf2(bil, rows) else None,
        )

    images = _RowImages(form)
    if fld.k == 1:
        p = fld.p

        def pairs(b, prepared):
            h = images[b][0]
            return [sum(map(mul, h, x)) % p for x in prepared[0]]

    else:
        dot = fld.dot

        def pairs(b, prepared):
            h = images[b][0]
            return [dot(h, x) for x in prepared[0]]

    def prepare(rows):
        info = [images[x] for x in rows]
        return [cx for _, cx, _ in info], [own for _, _, own in info]

    def verdict(_, columns):
        r = _decode(form, columns)
        if not forms.is_nondegenerate(r):
            return None
        return forms.orthogonal_type(r) if form.kind == forms.ORTHOGONAL else True

    return _Classifier(prepare, pairs, verdict)


def _decode(form: ClassicalForm, columns) -> forms.RestrictedForm:
    """The form restricted to a member's basis, from its generic-field key.

    Column j holds B(b_i, b_j) for i < j, then Q(b_j) if orthogonal, else
    B(b_j, b_j).  Below the diagonal the gram is the transpose, negative
    (symplectic) or conjugate (hermitian) of the upper triangle; the
    orthogonal (polar) diagonal is 2 Q(b_j).
    """
    fld = form.field
    mirror = {forms.SYMPLECTIC: fld.neg, forms.HERMITIAN: fld.conj}.get(form.kind, lambda v: v)
    e = len(columns)
    gram = [[0] * e for _ in range(e)]
    qdiag = []
    for j, (*above, own) in enumerate(columns):
        for i, v in enumerate(above):
            gram[i][j] = v
            gram[j][i] = mirror(v)
        if form.kind == forms.ORTHOGONAL:
            qdiag.append(own)
            own = fld.add(own, own)
        gram[j][j] = own
    qdiag = tuple(qdiag) if form.kind == forms.ORTHOGONAL else None
    return forms.RestrictedForm(form.kind, e, fld, tuple(map(tuple, gram)), qdiag)


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
        cb = tuple(map(fld.conj, b)) if form.kind == forms.HERMITIAN else b
        own = form.quad_value(b) if form.kind == forms.ORTHOGONAL else fld.dot(h, cb)
        image = self[b] = (h, cb, own)
        return image


def _walk(form: ClassicalForm, e: int, cls: _Classifier):
    """Every e-subspace's rows and key, one prefix at a time, in the canonical order.

    Per pivot pattern each row's candidates are prepared once.  Per prefix
    (every row but the last) this yields (pattern, prefix, the last row's
    candidates, the prefix's columns, one last column per candidate).
    """
    for pattern in combinations(range(form.d), e):
        *heads, lasts = linalg.row_candidates(form.d, pattern, form.field)
        prepared = [cls.prepare(rows) for rows in (*heads, lasts)]
        owns = prepared[-1][1]
        for prefix, columns, above in _prefixes(cls.pairs, heads, prepared, (), (), [[]] * e):
            yield pattern, prefix, lasts, columns, list(map(bytes, zip(*above, owns)))


def _prefixes(pairs, heads, prepared, prefix, columns, above):
    """(prefix, its columns, its entries against the last row) below one odometer node.

    heads are the prefix rows still to choose, prepared the (candidates,
    own entries) of those rows and of the last row, and above[k] holds the
    entries of the rows in prefix against prepared[k]'s candidates.  A row's
    entries against every later row's candidates are computed once, where
    it joins the prefix, so each column is a zip of lists already made.  The
    last prefix row yields directly rather than through one more level.
    """
    if not heads:  # e = 1: the empty prefix
        yield prefix, columns, above[0]
        return
    rows, *rest = heads
    (_, owns), *later = prepared
    keys = map(bytes, zip(*above[0], owns))
    if rest:
        for b, key in zip(rows, keys):
            deeper = [[*a, pairs(b, p)] for a, p in zip(above[1:], later)]
            yield from _prefixes(pairs, rest, later, prefix + (b,), columns + (key,), deeper)
    else:  # later is the last row alone
        (last,), (over_last,) = later, above[1:]
        for b, key in zip(rows, keys):
            yield prefix + (b,), columns + (key,), [*over_last, pairs(b, last)]


def classify_partition(form: ClassicalForm, e: int, budget: int | None = None):
    """Split all e-subspaces into non-degenerate buckets plus a degenerate count.

    Returns (buckets, degenerate) where buckets maps sigma (or True) to the
    member tuple in enumeration order (bitmask-row tuples over F_2).  The
    budget is checked on every call; the result is cached per (form, e).
    """
    if form.kind == forms.ORTHOGONAL and e % 2:
        raise ValueError("orthogonal type classification needs even dimensions")
    q = form.field.q
    total = exactnum.gaussian_binomial(form.d, e, q)
    if budget is None:
        budget = linalg.DEFAULT_ENUM_BUDGET
    if total > budget:
        raise linalg.BudgetError(
            f"{total} {e}-subspaces of dim {form.d} over F_{q} exceed budget {budget}"
        )
    return _partition(form, e)


@lru_cache(maxsize=None)
def _partition(form: ClassicalForm, e: int) -> tuple:
    """classify_partition without the budget check.

    One walk (_walk) serves every field.  Verdicts are memoized per prefix
    key, then per last column, so each distinct restricted form is
    classified once, on its first member; the member itself is built only
    if it is kept.  The zero space has no last row to walk: it is the one
    member at e = 0, with no rows and the empty key.
    """
    cls = _classifier(form)
    fld, d = form.field, form.d
    if e == 0:
        c = cls.verdict((), ())
        return ({} if c is None else {c: (linalg.member(fld, d, (), ()),)}), int(c is None)
    memo: dict = {}
    buckets = defaultdict(list)
    degenerate = 0
    for pattern, prefix, lasts, columns, tails in _walk(form, e, cls):
        seen = memo.get(columns)
        if seen is None:
            seen = memo[columns] = {}
        for last, tail in zip(lasts, tails):
            try:
                c = seen[tail]
            except KeyError:
                c = seen[tail] = cls.verdict(prefix + (last,), (*columns, tail))
            if c is None:
                degenerate += 1
            else:
                buckets[c].append(linalg.member(fld, d, pattern, prefix + (last,)))
    return {c: tuple(v) for c, v in buckets.items()}, degenerate


def build_yset(
    form: ClassicalForm,
    e: int,
    sigma: int | None = None,
    budget: int | None = None,
) -> YSet:
    """Enumerate the non-degenerate e-subspaces (of type sigma, if orthogonal).

    The enumerated count must equal the orbit-stabilizer closed form; a
    mismatch raises instead of returning bad data.
    """
    if form.kind == forms.ORTHOGONAL and sigma not in (1, -1):
        raise ValueError("orthogonal Y-sets need sigma = +1 or -1")
    if form.kind != forms.ORTHOGONAL and sigma is not None:
        raise ValueError(f"sigma applies only to orthogonal spaces, not {form.kind}")
    buckets, _ = classify_partition(form, e, budget)
    key = sigma if form.kind == forms.ORTHOGONAL else True
    members = buckets.get(key, ())
    expected = exactnum.count_nondegenerate(
        form.kind, e, form.d - e, form.q, eps=form.eps, sigma1=sigma
    )
    if len(members) != expected:
        raise ArithmeticError(
            f"enumerated {len(members)} non-degenerate {e}-spaces, closed form says "
            f"{expected} ({form.kind}, q={form.q}, d={form.d}, sigma={sigma})"
        )
    return YSet(form, e, sigma, members)


# -- pair counting -----------------------------------------------------------


def count_complementary(y1: YSet, y2: YSet, threshold: Fraction | None = None) -> CountReport:
    """Exact count over all of Y1 x Y2: the popcounts of the complement rows."""
    if y1.form != y2.form:
        raise ValueError("Y-sets live on different spaces")
    m1, m2 = y1.members, y2.members
    pairs = sum(row.bit_count() for row in linalg.complement_rows(y1.form.field, m1, m2))
    proportion = Fraction(pairs, len(m1) * len(m2))
    return _finish_report(y1, y2, pairs, proportion, "full-pairs", threshold)


def count_complementary_transitive(
    y1: YSet, y2: YSet, threshold: Fraction | None = None
) -> CountReport:
    """Single-orbit shortcut: fix the first member of Y1 and scan Y2.

    Valid because the isometry group is transitive on Y1 and preserves both
    Y2 and complementarity, so the complementary count per S1 is constant.
    """
    if y1.form != y2.form:
        raise ValueError("Y-sets live on different spaces")
    against = linalg.pair_test(y1.form.field)
    hits = sum(map(against(y1.members[0]), y2.members))
    pairs = hits * y1.count
    proportion = Fraction(hits, y2.count)
    return _finish_report(y1, y2, pairs, proportion, "transitivity-fast-path", threshold)


def _finish_report(y1, y2, pairs, proportion, method, threshold) -> CountReport:
    form = y1.form
    case = {"kind": form.kind, "q": form.q, "d": form.d, "e1": y1.e, "e2": y2.e}
    if form.eps is not None:
        case["eps"] = exactnum.sign_char(form.eps)
    if y1.sigma is not None:
        case["sigma1"] = exactnum.sign_char(y1.sigma)
    if y2.sigma is not None:
        case["sigma2"] = exactnum.sign_char(y2.sigma)
    passed = None if threshold is None else proportion >= threshold
    return CountReport(
        case=case,
        y1_count=y1.count,
        y2_count=y2.count,
        pairs=pairs,
        proportion=proportion,
        method=method,
        threshold=threshold,
        passed=passed,
    )


def count_case(
    form: ClassicalForm,
    e1: int,
    e2: int,
    sigma1: int | None = None,
    sigma2: int | None = None,
    threshold: Fraction | None = None,
    full_pairs: bool = False,
    budget: int | None = None,
) -> CountReport:
    """Exact proportion of complementary pairs between the two Y-sets of a case.

    Counts all pairs with `full_pairs`, otherwise one orbit; the report is
    judged against `threshold` when one is given.
    """
    y1 = build_yset(form, e1, sigma1, budget)
    y2 = build_yset(form, e2, sigma2, budget)
    if full_pairs:
        return count_complementary(y1, y2, threshold)
    return count_complementary_transitive(y1, y2, threshold)


# -- biadjacency and spectral checks ------------------------------------------


@dataclass(frozen=True)
class Biadjacency:
    """The 0/1 complementarity matrix N, one int bitmask per row.

    Row i indexes the i-th e1-space and bit j of masks[i] is N[i][j], the
    complementarity of e1-space i and e2-space j, both in enumeration order.
    """

    e1: int
    e2: int
    q: int
    n2: int
    masks: tuple

    @property
    def n1(self) -> int:
        return len(self.masks)

    def gram(self) -> list:
        """N N^T: entry (i, j) is popcount(masks[i] & masks[j])."""
        return [[(mi & mj).bit_count() for mj in self.masks] for mi in self.masks]


def build_biadjacency(e1: int, e2: int, q: int, cap: int = DEFAULT_BIADJACENCY_CAP) -> Biadjacency:
    """0/1 matrix of the complementarity relation in enumeration order.

    The cap is checked on every call, before the cache.
    """
    d = e1 + e2
    n1 = exactnum.gaussian_binomial(d, e1, q)
    if n1 > cap:
        raise linalg.BudgetError(f"[{d} choose {e1}]_{q} = {n1} exceeds the cap {cap}")
    return _biadjacency(e1, e2, q)


@lru_cache(maxsize=None)
def _biadjacency(e1: int, e2: int, q: int) -> Biadjacency:
    fld = field(q)
    x1 = list(linalg.members(e1 + e2, e1, fld))
    x2 = list(linalg.members(e1 + e2, e2, fld)) if e1 != e2 else x1
    return Biadjacency(e1, e2, q, len(x2), tuple(linalg.complement_rows(fld, x1, x2)))


def _mat_mul(a, b) -> list:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def annihilator_check(e1: int, e2: int, q: int, cap: int = DEFAULT_BIADJACENCY_CAP) -> bool:
    """Exact check of the spectrum of N N^T: annihilator and trace identities.

    With d = e1 + e2 and mult_j = [d, j]_q - [d, j-1]_q, the eigenvalue
    q^(2 m_j) of N N^T has multiplicity mult_j (the Grassmann-scheme
    eigenspaces).  Checked in integer arithmetic:

        prod_j (N N^T - q^(2 m_j) I) = 0,
        tr(N N^T)      = sum_j mult_j q^(2 m_j),
        ||N N^T||_F^2  = sum_j mult_j q^(4 m_j).

    The annihilator says the closed-form q^(2 m_j) include every eigenvalue;
    the traces tie them to their multiplicities, so that a graph with the
    right eigenvalues in the wrong proportions fails.  The product is taken
    by _annihilates on packed rows, never as dense matrices.
    """
    bi = build_biadjacency(e1, e2, q, cap)
    spec = spectrum.eigen_exponents(max(e1, e2), min(e1, e2))
    lams = [spec.eigenvalue_squared(q, j) for j in range(len(spec.exponents))]
    m = bi.gram()
    n = len(m)
    trace, frobenius = _predicted_traces(e1 + e2, q, lams)
    if sum(m[i][i] for i in range(n)) != trace:
        return False
    if sum(v * v for row in m for v in row) != frobenius:
        return False
    return _annihilates(m, lams)


def _annihilates(m, lams) -> bool:
    """Whether prod_j (m - lams[j] I) is the zero matrix, for an integer matrix m.

    Each row of the product P is carried as one int, sum_c P[r][c] 2^(w c)
    (Kronecker substitution), and a factor is applied from the left as
    row r <- sum_k m[r][k] row k - lam row r: about n^2 small-int times
    big-int steps per factor.  Those steps are linear, so the packed rows are
    exact whatever the carries between fields.  Every |P[r][c]| is at most
    the product over j of max_r (sum_c |m[r][c]| + |lams[j]|), below
    2^(w - 2), so a packed row is 0 exactly when its row of P is.
    """
    bound = 1
    for lam in lams:
        bound *= max(sum(map(abs, row)) + abs(lam) for row in m)
    w = bound.bit_length() + 2
    *rest, last = lams
    rows = [
        sum((v - last if r == c else v) << (w * c) for c, v in enumerate(row))
        for r, row in enumerate(m)
    ]
    for lam in rest:
        rows = [sum(map(mul, m_r, rows)) - lam * x_r for m_r, x_r in zip(m, rows)]
    return not any(rows)


def _predicted_traces(d: int, q: int, lams) -> tuple:
    """(tr(N N^T), ||N N^T||_F^2) from the eigenvalues lams[j] = q^(2 m_j).

    The multiplicity of lams[j] is mult_j = [d, j]_q - [d, j-1]_q.
    """
    binoms = [exactnum.gaussian_binomial(d, j, q) for j in range(len(lams))]
    mults = [b - a for a, b in zip([0, *binoms], binoms)]
    return sum(map(mul, mults, lams)), sum(c * lam * lam for c, lam in zip(mults, lams))


# -- expander mixing lemma, exactly ------------------------------------------


@dataclass(frozen=True)
class MixingReport:
    e1: int
    e2: int
    q: int
    alpha1: Fraction
    alpha2: Fraction
    edges: int
    holds: bool
    tight: bool
    charpoly_ok: bool | None  # None when some alpha is 0 or 1
    seed: int | None = None


def _charpoly(mat) -> list:
    """Characteristic polynomial coefficients [1, c1, ..., cn] of a rational matrix.

    Faddeev-LeVerrier over the integers: with L the lcm of the entries'
    denominators, A = L * mat is an integer matrix whose characteristic
    polynomial has integer coefficients a_k, each found by an exact division
    of a trace by k (a remainder raises ArithmeticError).  Then c_k = a_k / L^k.
    """
    n = len(mat)
    frac = [[Fraction(v) for v in row] for row in mat]
    scale = lcm(*(v.denominator for row in frac for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in frac]
    coeffs = [Fraction(1)]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ak, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs.append(Fraction(ak, scale**k))
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ak
        mk = _mat_mul(a, mk)
    return coeffs


def mixing_check(
    e1: int,
    e2: int,
    q: int,
    idx1,
    idx2,
    cap: int = DEFAULT_BIADJACENCY_CAP,
    seed: int | None = None,
) -> MixingReport:
    """Exact two-sided check of the mixing inequality for one subset pair.

    The edge count between the two subsets is the sum of
    popcount(masks[i] & mask2) over the rows i in subset 1, with mask2 the
    bitmask of subset 2.  The inequality is squared to clear the radical
    (both sides are non-negative) and multiplied out of its denominators, so
    holds and tight are integer comparisons.  When both densities are
    interior the 4x4 quotient matrix's characteristic polynomial (_charpoly)
    is compared against (t^2 - k^2)(t^2 - gamma^2/delta) coefficient by
    coefficient.
    """
    bi = build_biadjacency(e1, e2, q, cap)
    n1, n2 = bi.n1, bi.n2
    set1 = sorted(set(idx1))
    set2 = sorted(set(idx2))
    k = q ** (e1 * e2)
    d = e1 + e2
    if set1 and not (0 <= set1[0] and set1[-1] < n1):
        raise IndexError(f"e1-space indices must lie in range({n1})")
    if set2 and not (0 <= set2[0] and set2[-1] < n2):
        raise IndexError(f"e2-space indices must lie in range({n2})")
    mask2 = sum(1 << j for j in set2)
    masks = bi.masks
    edges = sum((masks[i] & mask2).bit_count() for i in set1)
    big_d = n1 * k
    s1, s2 = len(set1), len(set2)
    a1 = Fraction(s1, n1)
    a2 = Fraction(s2, n2)
    # the squared inequality times (n1 n2 k)^2 q^d, with dev = edges n2 - s1 s2 k
    dev = edges * n2 - s1 * s2 * k
    lhs = dev * dev * q**d
    rhs = k * k * s1 * s2 * (n1 - s1) * (n2 - s2)
    holds = lhs <= rhs
    tight = lhs == rhs
    charpoly_ok = None
    if 0 < a1 < 1 and 0 < a2 < 1:
        e_y1_x2 = k * s1
        e_x1_y2 = k * s2
        b = [
            [0, 0, Fraction(edges, s1), Fraction(e_y1_x2 - edges, s1)],
            [
                0,
                0,
                Fraction(e_x1_y2 - edges, n1 - s1),
                Fraction(big_d - e_y1_x2 - e_x1_y2 + edges, n1 - s1),
            ],
            [Fraction(edges, s2), Fraction(e_x1_y2 - edges, s2), 0, 0],
            [
                Fraction(e_y1_x2 - edges, n2 - s2),
                Fraction(big_d - e_y1_x2 - e_x1_y2 + edges, n2 - s2),
                0,
                0,
            ],
        ]
        gamma = edges - big_d * a1 * a2
        delta = n1 * n2 * a1 * a2 * (1 - a1) * (1 - a2)
        c = gamma * gamma / delta
        expected = [Fraction(1), Fraction(0), -(k * k + c), Fraction(0), k * k * c]
        charpoly_ok = _charpoly(b) == expected
    return MixingReport(e1, e2, q, a1, a2, edges, holds, tight, charpoly_ok, seed)


def random_subset_pairs(e1: int, e2: int, q: int, trials: int, seed: int):
    """Deterministic pseudo-random nonempty-subset pairs for the mixing suite."""
    bi = build_biadjacency(e1, e2, q)
    rng = random.Random(seed)
    for _ in range(trials):
        k1 = rng.randint(1, bi.n1)
        k2 = rng.randint(1, bi.n2)
        yield rng.sample(range(bi.n1), k1), rng.sample(range(bi.n2), k2)


def mixing_suite(e1: int, e2: int, q: int, trials: int = 100, seed: int = 0):
    """Boundary cases, neighborhood cases, and seeded random pairs."""
    bi = build_biadjacency(e1, e2, q)
    full1 = list(range(bi.n1))
    full2 = list(range(bi.n2))
    nbr1 = [i for i in full1 if bi.masks[i] & 1]
    nbr2 = [j for j in full2 if bi.masks[0] >> j & 1]
    cases = [
        (full1, full2),
        (full1, [0]),
        ([0], full2),
        ([0], [0]),
        ([], full2),
        (full1, []),
        # neighborhoods of a fixed vertex on each side
        (nbr1, full2),
        (full1, nbr2),
        (nbr1, nbr2),
    ]
    reports = [mixing_check(e1, e2, q, s1, s2) for s1, s2 in cases]
    for s1, s2 in random_subset_pairs(e1, e2, q, trials, seed):
        reports.append(mixing_check(e1, e2, q, s1, s2, seed=seed))
    return reports
