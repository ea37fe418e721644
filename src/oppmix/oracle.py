"""Brute-force ground truth: Y-sets, pair counts, and the graph checks.

Everything here is exact.  build_ysets enumerates Y-sets in the canonical
subspace order, sized before it enumerates, and hard-checks every bucket
against its closed-form count, whether or not a caller asks for it;
complementary-pair counting comes in two flavours (all pairs, and the
single-orbit shortcut that fixes one subspace and checks itself on two
more), which must agree wherever both run.

Members are the tuples of their RREF rows, as linalg.members lists them:
bitmask rows over F_2, rows of field values over other fields.
All-pairs counts and the biadjacency matrix take their rows from
linalg.complement_rows (point incidence); an all-pairs count is the sum of
those rows' popcounts, taken serially in one process.  The single-orbit
count fixes the first, the middle and the last member of one side (the one
of larger dimension, else the one with more members), reads them off the
build's codes by index, lists the complements of each as graphs of linear
maps (linalg.complement_candidates) and codes them with the other side's
build classifier, which classifies exactly those graphs' (form, e); the
second and third counts check the shortcut.  One classification gives a
probe's hits in every bucket of the other dimension, so count_case
classifies each fixed bucket once for all its cases.

A partition build is one loop for every field.  Each pivot pattern's
members are the product of its rows' candidates (linalg.row_candidates),
last row fastest; forms.classifier gives each member one code
(forms.verdicts), in blocks of at most _BLOCK members, as it does a probe's
graphs.  A build keeps each pattern's candidates and codes, not its
members: a bucket (Members) counts its code in the codes, reads one member
by index, and lists its members only when a caller iterates them, as an
all-pairs count does.  No module state caches a build: count_case builds
each distinct e of one form once for a list of sign cases and drops the
builds when it returns.

The biadjacency matrix of the complementarity graph holds each row as an int
bitmask, so edge counts and the entries of N N^T are popcounts.  Callers
build it once and pass it on; nothing caches it.  The annihilator product
is taken on rows packed into one int each.

The mixing check is integer arithmetic throughout: the squared inequality
and, for interior subset pairs, the two nonzero coefficients of the quotient
matrix's characteristic polynomial, read off its block structure.  These
hold for every pair of a square biadjacency; they still run because
mixing-check reports their tally.

The oracle knows no theorem: a caller that judges a proportion passes the
threshold in.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, product
from math import prod
from operator import mul
from typing import NamedTuple

from . import exactnum, forms, linalg
from .forms import ClassicalForm
from .gf import field

DEFAULT_ENUM_BUDGET = 1_500_000
BIADJACENCY_CAP = 5000


class Members:
    """The kept members of one bucket of a partition build, in the canonical
    order, read off the build's codes: patterns holds per pivot pattern its
    row candidates and one code (forms.verdicts) per member of their
    product, and the bucket keeps the members coded code.

    len and an index read the codes alone, so the single-orbit count takes
    its probes without listing a member; every other read (iteration, a
    slice, equality) lists the members once, as the tuple of each one's
    RREF rows (listed), and reads that.
    """

    __slots__ = ("patterns", "code", "sizes", "_listed")

    def __init__(self, patterns: list, code: int):
        self.patterns, self.code = patterns, code
        self.sizes = [codes.count(code) for _, codes in patterns]
        self._listed = None

    def __len__(self) -> int:
        return sum(self.sizes)

    def __getitem__(self, i):
        if isinstance(i, slice) or self._listed is not None:
            return self.listed()[i]
        at = i + len(self) if i < 0 else i
        if not 0 <= at < len(self):
            raise IndexError("member index out of range")
        for (candidates, codes), size in zip(self.patterns, self.sizes):
            if at < size:
                break
            at -= size
        lo, hi = 0, len(codes)  # the member is the at-th one coded code in codes[lo:hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            left = codes.count(self.code, lo, mid)
            lo, hi, at = (lo, mid, at) if at < left else (mid, hi, at - left)
        rows = []
        for rows_of in reversed(candidates):  # lo in mixed radix, the last row fastest
            lo, r = divmod(lo, len(rows_of))
            rows.append(rows_of[r])
        return tuple(reversed(rows))

    def __iter__(self):
        return iter(self.listed())

    def __eq__(self, other) -> bool:
        return self.listed() == (other.listed() if isinstance(other, Members) else other)

    def listed(self) -> tuple:
        """Every member, listed on the first call."""
        if self._listed is None:
            keep = bytes(map(self.code.__eq__, range(256)))
            self._listed = tuple(chain.from_iterable(
                compress(product(*candidates), codes.translate(keep))
                for candidates, codes in self.patterns
            ))
        return self._listed


class YSet(NamedTuple):
    form: ClassicalForm
    e: int
    sigma: int | None  # orthogonal subspace type; None for symplectic/hermitian
    members: Sequence  # each the tuple of its RREF rows, bitmasks over F_2; a build's are Members
    classifier: Callable | None = None  # the build's forms.classifier(form, e), if it has one

    @property
    def count(self) -> int:
        return len(self.members)


class CountReport(NamedTuple):
    case: dict
    y1_count: int
    y2_count: int
    pairs: int
    proportion: Fraction
    method: str
    threshold: Fraction | None = None
    passed: bool | None = None


def _signs(form: ClassicalForm) -> tuple:
    """The bucket keys of a build, in the order of their codes 1, 2 (forms.verdicts)."""
    return (1, -1) if form.kind == forms.ORTHOGONAL else (None,)


def build_ysets(form: ClassicalForm, e: int, budget: int | None = None) -> dict:
    """Every non-degenerate bucket of the e-subspaces, as a YSet keyed by sigma
    (None unless the form is orthogonal).

    Sized first: the buckets' closed-form counts (count_nondegenerate rejects
    an e with nothing to count: 0, d, or odd if orthogonal or symplectic),
    then [d, e]_q against the budget.  Every bucket, asked for or not, must
    hold its count, or the build raises.  Nothing is cached.
    """
    fld, d = form.field, form.d
    signs = _signs(form)
    sizes = [exactnum.count_nondegenerate(form.kind, e, d - e, form.q, form.eps, s) for s in signs]
    total = exactnum.gaussian_binomial(d, e, fld.q)
    if budget is None:
        budget = DEFAULT_ENUM_BUDGET
    if total > budget:
        raise exactnum.BudgetError(
            f"{total} {e}-subspaces of dim {d} over F_{fld.q} exceed budget {budget}"
        )
    codes_of = forms.classifier(form, e)
    patterns = []
    for pattern in combinations(range(d), e):
        candidates = linalg.row_candidates(d, pattern, fld)
        patterns.append((candidates, _codes(codes_of, candidates)))
    buckets = [Members(patterns, k) for k in range(1, len(signs) + 1)]
    for sigma, size, members in zip(signs, sizes, buckets):
        if len(members) != size:
            raise ArithmeticError(
                f"enumerated {len(members)} non-degenerate {e}-spaces, closed form says "
                f"{size} ({form.kind}, q={form.q}, d={form.d}, sigma={sigma})"
            )
    return {sigma: YSet(form, e, sigma, members, codes_of) for sigma, members in zip(signs, buckets)}


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
    """Single-orbit shortcut: fix one member of one side and classify its
    complements.

    Valid because the isometry group is transitive on each Y-set (Witt's
    theorem) and preserves the other and complementarity, so every member
    of a side has the same number of complements in the other side:
    hits(S1 -> Y2)·|Y1| = hits(S2 -> Y1)·|Y2|.  The fixed side is the one of
    larger dimension, else the one with more members (Y1 if both tie).  The
    complements of its first, middle and last members are listed as graphs
    (linalg.complement_candidates) and coded by forms.classifier; a probe's
    hits are its graphs in the other side's bucket, and a count unlike the
    first raises ArithmeticError.  A probe has q^(e1·e2) <= [d, e_other]_q
    graphs, a size that the other side's build checked against its budget.
    """
    return _count_transitive(y1, y2, threshold, {})


_BLOCK = 65536  # members per classifier call, unless one first row has more


def _codes(codes_of, candidates: list) -> bytes:
    """codes_of(candidates), taken in blocks of at most _BLOCK members split on
    the first row's candidates."""
    first, *rest = candidates
    step = max(1, _BLOCK // prod(map(len, rest)))
    return b"".join(codes_of([first[a : a + step], *rest]) for a in range(0, len(first), step))


def _count_transitive(y1: YSet, y2: YSet, threshold, tallies: dict) -> CountReport:
    """count_complementary_transitive, with the probes' _tallies kept in
    tallies by the fixed side's (e, sigma) for the cases of one form."""
    if y1.form != y2.form:
        raise ValueError("Y-sets live on different spaces")
    if y1.e + y2.e != y1.form.d:
        raise ValueError("complements need e1 + e2 = d")
    fixed, other = (y2, y1) if (y2.e, y2.count) > (y1.e, y1.count) else (y1, y2)
    key = fixed.e, fixed.sigma
    if key not in tallies:
        probes = [fixed.members[i] for i in (0, fixed.count // 2, -1)]
        tallies[key] = _tallies(fixed.form, other.e, probes, other.classifier)
    hits, *checks = (tally[other.sigma] for tally in tallies[key])
    for name, again in zip(("middle", "last"), checks):
        if again != hits:
            raise ArithmeticError(
                f"single-orbit count: the first {fixed.e}-space has {hits} complements, "
                f"the {name} has {again}"
            )
    pairs = hits * fixed.count
    proportion = Fraction(hits, other.count)
    return _finish_report(y1, y2, pairs, proportion, "transitivity-fast-path", threshold)


def _tallies(form: ClassicalForm, e: int, probes, codes_of=None) -> list:
    """Per probe, {sigma: its complements in the bucket sigma of the e-spaces},
    e = d - dim probe.  The graphs go to codes_of, the e-spaces' classifier
    (a new forms.classifier(form, e) if None), through _codes."""
    signs = _signs(form)
    codes_of = codes_of or forms.classifier(form, e)
    out = []
    for s in probes:
        codes = _codes(codes_of, linalg.complement_candidates(form.d, s, form.field))
        out.append({sigma: codes.count(k) for k, sigma in enumerate(signs, 1)})
    return out


def _finish_report(y1, y2, pairs, proportion, method, threshold) -> CountReport:
    form = y1.form
    case = {"kind": form.kind, "q": form.q, "d": form.d, "e1": y1.e, "e2": y2.e}
    signs = {"eps": form.eps, "sigma1": y1.sigma, "sigma2": y2.sigma}
    case.update((k, exactnum.sign_char(v)) for k, v in signs.items() if v is not None)
    passed = None if threshold is None else proportion >= threshold
    return CountReport(case, y1.count, y2.count, pairs, proportion, method, threshold, passed)


def count_case(
    form: ClassicalForm,
    e1: int,
    e2: int,
    cases: list,
    full_pairs: bool = False,
    budget: int | None = None,
) -> list:
    """Exact proportions of complementary pairs, one CountReport per case.

    Each case is (sigma1, sigma2, threshold), the signs as build_ysets keys
    them: Y1 is the type-sigma1 bucket of the e1-spaces, Y2 the type-sigma2
    bucket of the e2-spaces, and the report is judged against threshold
    unless it is None.  Each distinct e is built once, and the builds are
    freed when the call returns.  Counts all pairs with `full_pairs`,
    otherwise one orbit.
    """
    ysets = {e: build_ysets(form, e, budget) for e in dict.fromkeys((e1, e2))}
    count = count_complementary if full_pairs else partial(_count_transitive, tallies={})
    return [count(ysets[e1][s1], ysets[e2][s2], threshold) for s1, s2, threshold in cases]


# -- biadjacency and spectral checks ------------------------------------------


class Biadjacency(NamedTuple):
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


def build_biadjacency(e1: int, e2: int, q: int) -> Biadjacency:
    """0/1 matrix of the complementarity relation in enumeration order.

    BIADJACENCY_CAP bounds its rows, checked before anything is enumerated.
    Nothing is cached: a caller that uses the matrix twice holds it.
    """
    d = e1 + e2
    n1 = exactnum.gaussian_binomial(d, e1, q)
    if n1 > BIADJACENCY_CAP:
        raise exactnum.BudgetError(f"[{d} choose {e1}]_{q} = {n1} exceeds the cap {BIADJACENCY_CAP}")
    fld = field(q)
    x1 = list(linalg.members(d, e1, fld))
    x2 = list(linalg.members(d, e2, fld)) if e1 != e2 else x1
    return Biadjacency(e1, e2, q, len(x2), tuple(linalg.complement_rows(fld, x1, x2)))


def annihilator_check(e1: int, e2: int, q: int) -> bool:
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
    from . import spectrum

    bi = build_biadjacency(e1, e2, q)
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


class MixingReport(NamedTuple):
    e1: int
    e2: int
    q: int
    alpha1: Fraction
    alpha2: Fraction
    edges: int
    holds: bool
    tight: bool
    charpoly_ok: bool | None  # None when some alpha is 0 or 1


def mixing_check(bi: Biadjacency, idx1, idx2) -> MixingReport:
    """Exact two-sided check of the mixing inequality for one subset pair of bi.

    The edge count E between the subsets (sizes s1, s2) is the sum of
    popcount(masks[i] & mask2) over the rows i in subset 1, with mask2 the
    bitmask of subset 2.  The inequality is squared to clear the radical
    (both sides are non-negative) and multiplied out of its denominators, so
    holds and tight are integer comparisons.

    For interior densities, charpoly_ok compares the characteristic
    polynomial of the quotient matrix B = [[0, P], [R, 0]] of
    {Y1, X1 - Y1, Y2, X2 - Y2} with (t^2 - k^2)(t^2 - c), where
    sqrt(c) <= lambda_2 is the inequality itself (interlacing, Haemers 1995).
    By the block identity det(tI - B) = t^4 - tr(PR) t^2 + det P det R, with
    u_i = n_i - s_i, a = k s1 - E, b = k s2 - E, f = n1 k - a - b - E,
    m = s1 s2 u1 u2, N = n1 n2, g = n1 (E n2 - k s1 s2) and
    T = E^2 u1 u2 + a^2 s2 u1 + b^2 s1 u2 + f^2 s1 s2, it reads
    T N = k^2 m N + g^2 and (E f - a b)^2 N = k^2 g^2 in integers
    (tr(PR) = T/m, det P det R = (E f - a b)^2/m, c = g^2/(N m)).  These
    hold for every pair when n1 = n2, so they check the biadjacency and its
    edge bookkeeping, not the inequality; they run because mixing-check
    reports how many pairs they covered (charpoly_checked).
    """
    e1, e2, q = bi.e1, bi.e2, bi.q
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
    s1, s2 = len(set1), len(set2)
    u1, u2 = n1 - s1, n2 - s2
    a1 = Fraction(s1, n1)
    a2 = Fraction(s2, n2)
    # the squared inequality times (n1 n2 k)^2 q^d, with dev = edges n2 - s1 s2 k
    dev = edges * n2 - s1 * s2 * k
    m = s1 * s2 * u1 * u2
    lhs = dev * dev * q**d
    rhs = k * k * m
    holds = lhs <= rhs
    tight = lhs == rhs
    charpoly_ok = None
    if m:  # both densities interior
        a, b = k * s1 - edges, k * s2 - edges
        f = n1 * k - a - b - edges
        big_n, g = n1 * n2, n1 * dev
        big_t = edges * edges * u1 * u2 + a * a * s2 * u1 + b * b * s1 * u2 + f * f * s1 * s2
        det = edges * f - a * b
        trace_ok = big_t * big_n == k * k * m * big_n + g * g
        charpoly_ok = trace_ok and det * det * big_n == k * k * g * g
    return MixingReport(e1, e2, q, a1, a2, edges, holds, tight, charpoly_ok)


def random_subset_pairs(bi: Biadjacency, trials: int, seed: int):
    """Deterministic pseudo-random nonempty-subset pairs of bi's rows and columns."""
    rng = random.Random(seed)
    for _ in range(trials):
        k1 = rng.randint(1, bi.n1)
        k2 = rng.randint(1, bi.n2)
        yield rng.sample(range(bi.n1), k1), rng.sample(range(bi.n2), k2)


def mixing_suite(e1: int, e2: int, q: int, trials: int = 100, seed: int = 0):
    """Boundary cases, neighborhood cases, and seeded random pairs, on one build."""
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
    cases += random_subset_pairs(bi, trials, seed)
    return [mixing_check(bi, s1, s2) for s1, s2 in cases]
