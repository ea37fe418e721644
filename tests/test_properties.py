"""Property tests of the exact kernels against their reference implementations."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oppmix import linalg  # noqa: E402
from oppmix.gf import field  # noqa: E402
from reference import subspace_from_rows  # noqa: E402


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
