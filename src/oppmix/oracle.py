"""Brute-force ground truth: enumerate, count, and spectrally check.

Everything here is exact.  Y-sets are enumerated in the canonical subspace
order and hard-checked against the closed-form counts at construction time;
complementary-pair counting comes in two flavours (all pairs, and the
single-orbit shortcut that fixes one subspace), which must agree wherever
both run.

Members come from linalg.members, so the representation (bitmask-row tuples
over F_2, Subspace objects over other fields) is chosen in linalg; only the
restricted-form keys of a partition build read bitmask rows themselves.
All-pairs counts and the biadjacency matrix take their rows from
linalg.complement_rows (point incidence); the single-orbit count tests one
S1 with linalg.pair_test.  A partition build classifies each distinct
restricted form (the form on the member's basis) once and reuses the
verdict for every member that restricts to it.  Over other fields the key
holds the restricted gram's upper triangle (with the diagonal if hermitian;
and the Q(b_i) if orthogonal), from a per-build memo of each distinct basis
row's image under the ambient form; a verdict decodes the whole form from it.

The biadjacency matrix of the complementarity graph holds each row as an int
bitmask, so edge counts and the entries of N N^T are popcounts.  The
annihilator product is taken on rows packed into one int each.

The oracle knows no theorem: a caller that judges a proportion passes the
threshold in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from . import exactnum, forms, linalg, spectrum
from .forms import ClassicalForm
from .gf import field

DEFAULT_BIADJACENCY_CAP = 5000
DEFAULT_ENUM_BUDGET = 1_500_000


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


def _classifier(form: ClassicalForm):
    """(key, verdict) for one partition build over `form`.

    key(s) is the form restricted to the basis of member s, which alone
    decides verdict(s, key(s)): sigma (+-1) for orthogonal, True for plain
    non-degenerate, None if degenerate.  Over F_2 members are tuples of
    bitmask rows, the key packs the restricted form into an int and the
    verdict reads the rows.  Over other fields the key packs the entries
    that determine the form into bytes (see _decode) and the verdict decodes
    it back into a RestrictedForm.
    """
    if form.field.q == 2 and form.kind == forms.ORTHOGONAL:
        qt = forms.quad_table_gf2(form)

        def key(rows):
            # Q(b_i), and Q(b_i + b_j) = Q(b_i) + Q(b_j) + B(b_i, b_j), as bits
            k = 0
            for i, ri in enumerate(rows):
                k = (k << 1) | qt[ri]
                for rj in rows[i + 1 :]:
                    k = (k << 1) | qt[ri ^ rj]
            return k

        return key, lambda rows, _: forms.classify_orthogonal_gf2(qt, rows)
    if form.field.q == 2:  # symplectic: hermitian forms live over F_{q^2}
        bil = forms.bilinear_masks_gf2(form)

        def key(rows):
            # B(b_i, b_j) for i < j, as bits; the form is alternating
            k = 0
            for i, ri in enumerate(rows):
                for rj in rows[i + 1 :]:
                    k = (k << 1) | ((ri & bil[rj]).bit_count() & 1)
            return k

        return key, lambda rows, _: True if forms.symplectic_nondeg_gf2(bil, rows) else None

    fld = form.field
    if fld.k == 1:
        p = fld.p

        def dot(u, v):
            return sum(map(mul, u, v)) % p

    else:
        dot = fld.dot
    images = _RowImages(form, dot)
    lo = 0 if form.kind == forms.HERMITIAN else 1  # row i keeps columns j >= i + lo

    def key(s):
        # the kept gram entries row by row, then the Q(b_i) if orthogonal,
        # one byte per field element, from the rows' memoized images
        basis = s.basis
        imgs = [images[b] for b in basis]
        out = [dot(b, gb) for i, b in enumerate(basis) for gb, _ in imgs[i + lo :]]
        if form.kind == forms.ORTHOGONAL:
            out += [qb for _, qb in imgs]
        return bytes(out)

    def verdict(s, k):
        r = _decode(form, s.e, k)
        if not forms.is_nondegenerate(r):
            return None
        return forms.orthogonal_type(r) if form.kind == forms.ORTHOGONAL else True

    return key, verdict


def _decode(form: ClassicalForm, e: int, k: bytes) -> forms.RestrictedForm:
    """The form restricted to an e-space, from its generic-field key k.

    k holds the gram's (i, j) for i < j (i <= j if hermitian), then the Q(b_i)
    if orthogonal.  Below the diagonal the gram is the transpose, negative
    (symplectic, 0 diagonal) or conjugate (hermitian) of the upper triangle;
    the orthogonal (polar) diagonal is 2 Q(b_i).
    """
    fld = form.field
    mirror = {forms.SYMPLECTIC: fld.neg, forms.HERMITIAN: fld.conj}.get(form.kind, lambda v: v)
    gram = [[0] * e for _ in range(e)]
    entries = iter(k)
    for i in range(e):
        for j in range(i if form.kind == forms.HERMITIAN else i + 1, e):
            gram[i][j] = v = next(entries)
            gram[j][i] = mirror(v)
    qdiag = None
    if form.kind == forms.ORTHOGONAL:
        qdiag = tuple(entries)
        for i, qb in enumerate(qdiag):
            gram[i][i] = fld.add(qb, qb)
    return forms.RestrictedForm(form.kind, e, fld, tuple(map(tuple, gram)), qdiag)


class _RowImages(dict):
    """Basis row b -> (G b, Q(b)) for one partition build's generic key.

    G b is the ambient gram applied to b (to conj(b) for a hermitian form),
    so B(a, b) = dot(a, G b); Q(b) is None unless the form is orthogonal.  It
    holds one entry per distinct basis row, at most (q^d - 1)/(q - 1).
    """

    def __init__(self, form: ClassicalForm, dot):
        super().__init__()
        self.form = form
        self.dot = dot

    def __missing__(self, b) -> tuple:
        form, dot = self.form, self.dot
        c = tuple(map(form.field.conj, b)) if form.kind == forms.HERMITIAN else b
        qb = form.quad_value(b) if form.kind == forms.ORTHOGONAL else None
        image = self[b] = (tuple(dot(g, c) for g in form.gram), qb)
        return image


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
    if total > (budget or DEFAULT_ENUM_BUDGET):
        raise linalg.BudgetError(
            f"{total} {e}-subspaces of dim {form.d} over F_{q} "
            f"exceed budget {budget or DEFAULT_ENUM_BUDGET}"
        )
    return _partition(form, e)


@lru_cache(maxsize=None)
def _partition(form: ClassicalForm, e: int) -> tuple:
    """classify_partition without the budget check.

    Each distinct restricted form is classified once, on its first member.
    """
    restricted, verdict = _classifier(form)
    memo: dict = {}
    buckets: dict = {}
    degenerate = 0
    for s in linalg.members(form.d, e, form.field):
        k = restricted(s)
        try:
            c = memo[k]
        except KeyError:
            c = memo[k] = verdict(s, k)
        if c is None:
            degenerate += 1
        else:
            buckets.setdefault(c, []).append(s)
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


def _count_pairs(args) -> int:
    """Complementary pairs in members1 x members2 over F_q; one pool job."""
    q, members1, members2 = args
    rows = linalg.complement_rows(field(q), members1, members2)
    return sum(row.bit_count() for row in rows)


def count_complementary(
    y1: YSet, y2: YSet, threshold: Fraction | None = None, workers: int = 1
) -> CountReport:
    """Exact count over all of Y1 x Y2.

    With workers > 1 and more than 250,000 pairs, Y1 is dealt round-robin to
    a process pool.
    """
    if y1.form != y2.form:
        raise ValueError("Y-sets live on different spaces")
    q, m1, m2 = y1.form.field.q, y1.members, y2.members
    if workers > 1 and len(m1) * len(m2) > 250_000:
        # imported here: it loads multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(q, m1[i::workers], m2) for i in range(min(workers, len(m1)))]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = sum(pool.map(_count_pairs, jobs))
    else:
        pairs = _count_pairs((q, m1, m2))
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
    workers: int = 1,
) -> CountReport:
    """Exact proportion of complementary pairs between the two Y-sets of a case.

    Counts all pairs with `full_pairs`, otherwise one orbit; the report is
    judged against `threshold` when one is given.
    """
    y1 = build_yset(form, e1, sigma1, budget)
    y2 = build_yset(form, e2, sigma2, budget)
    if full_pairs:
        return count_complementary(y1, y2, threshold, workers=workers)
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
