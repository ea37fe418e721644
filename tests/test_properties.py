"""Property tests of the exact kernels against their reference implementations."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oppmix import forms, linalg, oracle  # noqa: E402
from oppmix.gf import field  # noqa: E402
from reference import (  # noqa: E402
    dense_factor_product,
    singular_count_by_points,
    subspace_from_rows,
)


@st.composite
def spanning_pairs(draw):
    """(field, S1, S2): two subspaces of F_q^d, each the span of random rows."""
    q = draw(st.sampled_from([3, 4]))
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
    f, s1, s2 = case
    assert linalg.pair_test(f, 1)(s1)(s2) == linalg.complementary(s1, s2, f)


@st.composite
def rational_matrices(draw):
    """Square rational matrices up to 5 x 5 with at least one non-integer entry."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    hypothesis.assume(any(v.denominator > 1 for row in mat for v in row))
    return mat


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(rational_matrices())
def test_charpoly_matches_sympy(mat):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in mat])
    coeffs = want.charpoly(t).all_coeffs()
    assert oracle._charpoly(mat) == [Fraction(int(c.p), int(c.q)) for c in coeffs]


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


@pytest.mark.parametrize("q", [3, 4, 5, 9])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_singular_count_matches_point_loop(e, q, data):
    r = data.draw(restricted_quadratic_forms(e, q))
    assert forms.singular_count(r) == singular_count_by_points(r)


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
