"""Property tests of the exact kernels against their reference implementations."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oppmix import bounds, exactnum, forms, linalg, oracle  # noqa: E402
from oppmix.gf import FIXED_MODULI, field  # noqa: E402
from reference import (  # noqa: E402
    bq_product,
    compare_by_subtraction,
    complementary,
    dense_factor_product,
    det_by_permutations,
    lambda_product,
    mixing_radicand,
    omega_product,
    orthogonal_type_by_count,
    points,
    points_by_span,
    radical_nondegenerate,
    rref,
    rref_bits,
    singular_count,
    singular_point_counts,
    subspace_from_rows,
)


@st.composite
def spanning_pairs(draw):
    """(field, S1, S2): two subspaces of F_q^d, each the span of random rows."""
    q = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.sampled_from([5, 6]))
    f = field(q)
    row = st.tuples(*[st.integers(0, q - 1)] * d)

    def span():
        rows = draw(st.lists(row, max_size=d))
        return subspace_from_rows(rows, f, d)

    return f, span(), span()


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(spanning_pairs())
def test_pair_test_matches_complementary_on_random_spans(case):
    # the projection scan modulo s1, of dimension e1, on a one-member list;
    # e1 + e2 may be above, at or below d
    f, s1, s2 = case
    hits = linalg.complement_hits(f, s1.d, [_member(f, s1)], [_member(f, s2)])
    assert hits == [complementary(s1, s2, f)]


def _max_d(q):
    # the span of a d-space has q^d vectors; keep it small for F_16 and F_25
    return 4 if q <= 9 else 3


@st.composite
def rref_subspaces(draw, f, d, e):
    """A random e-subspace of (F_q)^d, built in RREF from drawn pivots and free entries."""
    pivots = sorted(draw(st.lists(st.integers(0, d - 1), min_size=e, max_size=e, unique=True)))
    basis = []
    for p in pivots:
        row = [0] * d
        row[p] = 1
        for j in range(p + 1, d):
            if j not in pivots:
                row[j] = draw(st.integers(0, f.q - 1))
        basis.append(tuple(row))
    return linalg.Subspace(d, tuple(basis), tuple(pivots))


def _member(f, s):
    """s in the representation of linalg.members over f: its RREF rows."""
    return s.bit_rows() if f.q == 2 else s.basis


@st.composite
def complement_cases(draw, q, regime):
    """(field, S1s, S2s) with sign(e1 + e2 - d) == regime."""
    f = field(q)
    d = draw(st.integers(1, _max_d(q)))
    if regime < 0:
        e1 = draw(st.integers(0, d - 1))
        e2 = draw(st.integers(0, d - 1 - e1))
    elif regime == 0:
        e1 = draw(st.integers(0, d))
        e2 = d - e1
    else:
        e1 = draw(st.integers(1, d))
        e2 = draw(st.integers(d - e1 + 1, d))
    s1s = draw(st.lists(rref_subspaces(f, d, e1), min_size=1, max_size=4))
    s2s = draw(st.lists(rref_subspaces(f, d, e2), max_size=8))
    return f, s1s, s2s


@pytest.mark.parametrize("regime", [-1, 0, 1], ids=["below", "equal", "above"])
@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=st.data())
def test_complement_rows_match_complementary(q, regime, data):
    f, s1s, s2s = data.draw(complement_cases(q, regime))
    rows = list(linalg.complement_rows(f, [_member(f, s) for s in s1s], [_member(f, s) for s in s2s]))
    assert len(rows) == len(s1s)
    for s1, row in zip(s1s, rows):
        assert row >> len(s2s) == 0
        for j, s2 in enumerate(s2s):
            assert bool(row >> j & 1) == complementary(s1, s2, f), (s1, s2)


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=st.data())
def test_points_of_random_spanning_sets(q, data):
    # RREF canonicity: a shuffled invertible mix of the basis rows, plus
    # further combinations of them, reduces to the same Subspace, with the
    # same points; those are the (q^e - 1)/(q - 1) normalized vectors of the span
    f = field(q)
    d = data.draw(st.integers(1, _max_d(q)))
    e = data.draw(st.integers(0, d))
    s = data.draw(rref_subspaces(f, d, e))
    element, unit = st.integers(0, q - 1), st.integers(1, q - 1)
    rows = []
    for i, b in enumerate(s.basis):  # row i: a unit times b_i plus earlier rows
        coeffs = [data.draw(element) for _ in range(i)] + [data.draw(unit)]
        rows.append([f.dot(coeffs, col) for col in zip(*s.basis[: i + 1])])
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = [data.draw(element) for _ in range(e)]
        rows.append([f.dot(coeffs, col) for col in zip(*s.basis)] if e else [0] * d)
    rows = data.draw(st.permutations(rows))
    spanned = subspace_from_rows(rows, f, d)
    assert spanned == s
    if q == 2:
        bits = [sum(v << j for j, v in enumerate(r)) for r in rows]
        assert rref_bits(bits)[0] == s.bit_rows()
    pts = points(f, _member(f, s))
    assert len(pts) == len(set(pts)) == (q**e - 1) // (q - 1)
    assert set(pts) == points_by_span(f, s)
    assert sorted(points(f, _member(f, spanned))) == sorted(pts)


@st.composite
def restricted_quadratic_forms(draw, e, q):
    """Any quadratic form on F_q^e: Q(b_i) and the polar gram's upper entries drawn."""
    f = field(q)
    element = st.integers(0, q - 1)
    qdiag = tuple(draw(element) for _ in range(e))
    upper = {(i, j): draw(element) for i in range(e) for j in range(i + 1, e)}
    gram = tuple(
        tuple(
            f.add(qdiag[i], qdiag[i]) if i == j else upper[min(i, j), max(i, j)]
            for j in range(e)
        )
        for i in range(e)
    )
    return forms.RestrictedForm(forms.ORTHOGONAL, e, f, gram, qdiag)


def _closed_form_total(r) -> int:
    """Nonzero singular vectors of a non-degenerate quadratic restriction:
    q^(e-1) - 1 in odd dimension, else the total of forms.classify's type."""
    q = r.field.q
    if r.e % 2:
        return q ** (r.e - 1) - 1
    plus, minus = singular_point_counts(r.e // 2, q)
    return plus if forms.classify(r) == 1 else minus


@pytest.mark.parametrize(
    "e,q", [(e, q) for e in (1, 2, 3, 4) for q in (3, 4, 5, 9)] + [(4, 7), (6, 3)]
)
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_singular_count_matches_point_loop(e, q, data):
    # the point loop that orthogonal_type_by_count rests on, against the
    # closed-form totals, odd dimensions included
    r = data.draw(restricted_quadratic_forms(e, q))
    hypothesis.assume(radical_nondegenerate(r))
    assert singular_count(r) == _closed_form_total(r)


@pytest.mark.parametrize("e,q", [(4, 7), (6, 5)])
def test_singular_count_with_every_coefficient_p_minus_1(e, q):
    # every coefficient the largest residue; both forms are non-degenerate
    f = field(q)
    gram = tuple(tuple(f.add(q - 1, q - 1) if i == j else q - 1 for j in range(e)) for i in range(e))
    r = forms.RestrictedForm(forms.ORTHOGONAL, e, f, gram, (q - 1,) * e)
    assert singular_count(r) == _closed_form_total(r)


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@pytest.mark.parametrize("e", [2, 4])
@hypothesis.settings(max_examples=10, deadline=None)
@hypothesis.given(data=st.data())
def test_orthogonal_type_matches_count(e, q, data):
    # the invariant (discriminant or Arf) against the exhaustive count; a
    # degenerate form has neither count and classifies as None
    r = data.draw(restricted_quadratic_forms(e, q))
    want = orthogonal_type_by_count(r) if radical_nondegenerate(r) else None
    assert forms.classify(r) == want


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_det_matches_leibniz_sum(q, data):
    # det and rank share one elimination, so each is checked against a
    # reference of its own: the Leibniz sum, and the rank of the reference
    # rref, on square and on non-square matrices
    f = field(q)
    n = data.draw(st.integers(0, 4))
    element = st.integers(0, q - 1)
    rows = [[data.draw(element) for _ in range(n)] for _ in range(n)]
    det = linalg.det(rows, f)
    assert det == det_by_permutations(rows, f)
    assert (det != 0) == (len(rref(rows, f)[1]) == n)
    assert linalg.rank(rows, f) == len(rref(rows, f)[1])
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    rows = [[data.draw(element) for _ in range(ncols)] for _ in range(nrows)]
    assert linalg.rank(rows, f) == len(rref(rows, f)[1])


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@pytest.mark.parametrize("e", [2, 4])
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_rank_verdict_matches_radical_refinement(e, q, data):
    # forms.classify calls an even-dimensional quadratic restriction
    # non-degenerate iff its polar gram has full rank (odd q) or its Arf
    # elimination pairs every basis vector (even q); the radical refinement
    # decides it from the singular vectors of the radical instead
    r = data.draw(restricted_quadratic_forms(e, q))
    assert (forms.classify(r) is not None) == radical_nondegenerate(r)


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_field_axioms(q, data):
    f = field(q)
    element = st.integers(0, q - 1)
    x, y, z = data.draw(element), data.draw(element), data.draw(element)
    add, mul = f.add, f.mul
    assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, 0) == x and mul(x, 1) == x and mul(x, 0) == 0
    assert add(x, f.neg(x)) == 0 and f.sub(add(x, y), y) == x
    if x:
        assert mul(x, f.inv(x)) == 1
    # the row helpers that elimination uses agree with the element operations
    u = data.draw(st.lists(element, max_size=6))
    v = data.draw(st.lists(element, min_size=len(u), max_size=len(u)))
    assert f.scale(x, u) == [mul(x, a) for a in u]
    assert f.sub_scaled(u, x, v) == [f.sub(a, mul(x, b)) for a, b in zip(u, v)]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    a=st.fractions(min_value=-6, max_value=6, max_denominator=7),
    # b = 0 often: a rational surd takes compare's own path, a with t
    b=st.one_of(st.just(0), st.fractions(min_value=-6, max_value=6, max_denominator=7)),
    rad=st.fractions(min_value=0, max_value=12, max_denominator=5),
    t=st.one_of(st.integers(-12, 12), st.fractions(min_value=-12, max_value=12, max_denominator=7)),
    exact=st.booleans(),
)
def test_compare_matches_sympy_sign(a, b, rad, t, exact):
    sympy = pytest.importorskip("sympy")
    x = exactnum.surd(a, b, rad)
    if exact and x.b == 0:
        t = x.a  # the equal case, which sign-by-interval checks cannot decide
    r = sympy.Rational
    value = r(x.a.numerator, x.a.denominator) - r(t.numerator, t.denominator)
    value += r(x.b.numerator, x.b.denominator) * sympy.sqrt(x.base)
    assert exactnum.compare(x, t) == compare_by_subtraction(x, t) == int(sympy.sign(value))


@st.composite
def matrices_with_eigenvalues(draw):
    """(m, lams): an integer matrix U T U^-1 and some of T's diagonal entries.

    T is upper triangular with entries in [-3, 3] and U a product of integer
    elementary matrices, so the product over all of T's diagonal annihilates
    m; lams is a prefix of a shuffle of that diagonal plus at most one stray
    value, so the product may or may not vanish.
    """
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    m = [[draw(small) if j >= i else 0 for j in range(n)] for i in range(n)]
    diag = [m[i][i] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:  # m <- (I + c E_ij) m (I - c E_ij)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
    lams = draw(st.permutations(diag))[: draw(st.integers(1, n))]
    return m, lams + draw(st.lists(small, max_size=1))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(matrices_with_eigenvalues())
@hypothesis.example(([[0, 1, 0], [0, 0, -1], [0, 0, 0]], [0, 0]))  # one nonzero entry
def test_packed_annihilator_matches_dense_product(case):
    m, lams = case
    prod = dense_factor_product(m, lams)
    assert oracle._annihilates(m, lams) == all(v == 0 for row in prod for v in row)


KERNEL_BASES = [s * b for b in (2, 3, 4, 5, 7, 8, 9, 16, 81) for s in (1, -1)]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    base=st.sampled_from(KERNEL_BASES),
    e1=st.integers(0, 41),
    e2=st.integers(0, 41),
)
@hypothesis.example(base=81, e1=41, e2=41)
@hypothesis.example(base=-81, e1=41, e2=0)
def test_one_fraction_kernels_match_their_product_forms(base, e1, e2):
    # bq's uncached body, so that every example computes afresh
    assert exactnum.omega(base, e1) == omega_product(base, e1)
    assert exactnum.bq.__wrapped__(base, e1, e2) == bq_product(base, e1, e2)
    if base >= 2:
        assert exactnum.bq(base, e1, e2) * exactnum.gaussian_binomial(e1 + e2, e1, base) == (
            base ** (e1 * e2)
        )


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 97]),
    m1=st.integers(1, 12),
    m2=st.integers(1, 12),
    eps=st.sampled_from([1, -1]),
    sigma1=st.sampled_from([1, -1]),
)
def test_lambda_factor_matches_its_four_factor_form(q, m1, m2, eps, sigma1):
    assert exactnum.lambda_factor(sigma1, eps, m1, m2, q) == lambda_product(sigma1, eps, m1, m2, q)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    alpha1=st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(bool),
    alpha2=st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(bool),
    e1=st.integers(1, 12),
    e2=st.integers(1, 12),
    q=st.sampled_from([2, 3, 4, 5, 9, 16]),
)
@hypothesis.example(alpha1=Fraction(1), alpha2=Fraction(1, 3), e1=2, e2=2, q=2)  # radicand 0
def test_mixing_lower_bound_matches_its_display(alpha1, alpha2, e1, e2, q):
    # k (1 - sqrt((1/a1 - 1)(1/a2 - 1)/q^d)), k = q^(e1 e2)/[d, e1]_q, as surd builds it
    k = Fraction(q ** (e1 * e2), exactnum.gaussian_binomial(e1 + e2, e1, q))
    expected = exactnum.surd(k, -k, mixing_radicand(alpha1, alpha2, e1 + e2, q))
    assert bounds.mixing_lower_bound(alpha1, alpha2, e1, e2, q) == expected
