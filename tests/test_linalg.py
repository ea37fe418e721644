import random
from itertools import product

import pytest

from oppmix import linalg
from oppmix.exactnum import gaussian_binomial
from oppmix.gf import FIXED_MODULI, field
from oppmix.linalg import Subspace
from reference import complementary, complementary_bits, coord_subspace, enumerate_subspaces
from reference import nullspace, nullspace_bits, pair_test, rank_bits, rref, rref_bits


def test_rref_identity_and_zero():
    f = field(3)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    red, piv = rref(ident, f)
    assert red == tuple(tuple(r) for r in ident)
    assert piv == (0, 1, 2)
    red, piv = rref([[0, 0], [0, 0]], f)
    assert red == () and piv == ()


def test_rref_f2_example():
    f = field(2)
    red, piv = rref([[1, 1, 0, 0], [0, 1, 1, 0]], f)
    assert piv == (0, 1)
    assert red == ((1, 0, 1, 0), (0, 1, 1, 0))


def test_rref_scales_pivots_to_one():
    f = field(5)
    red, piv = rref([[2, 1], [4, 2]], f)
    assert piv == (0,)
    assert red == ((1, 3),)  # 2^-1 = 3 over F_5


def test_enumeration_counts_small():
    assert sum(1 for _ in linalg.members(4, 0, field(2))) == 1
    assert sum(1 for _ in linalg.members(4, 2, field(2))) == 35
    assert sum(1 for _ in linalg.members(3, 1, field(3))) == 13


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumeration_counts_vs_gaussian(q):
    for d in range(1, 7):
        for e in range(0, d + 1):
            n = sum(1 for _ in linalg.members(d, e, field(q)))
            assert n == gaussian_binomial(d, e, q)


def test_enumeration_counts_d8_gf2():
    for e in range(0, 9):
        n = sum(1 for _ in linalg.members(8, e, field(2)))
        assert n == gaussian_binomial(8, e, 2)


@pytest.mark.parametrize("q,max_d", [(2, 8), (3, 4), (4, 4)])
def test_members_match_reference_enumeration(q, max_d):
    f = field(q)
    for d in range(1, max_d + 1):
        for e in range(0, d + 1):
            want = [_member(f, s) for s in enumerate_subspaces(d, e, f)]
            assert list(linalg.members(d, e, f)) == want, (d, e)


@pytest.mark.parametrize("q", [2, 3])
def test_members_reject_e_above_d(q):
    with pytest.raises(ValueError, match="need 0 <= e <= d"):
        linalg.members(3, 4, field(q))


def test_enumeration_unique_and_canonical():
    seen = set()
    for s in linalg.members(4, 2, field(3)):
        assert s not in seen
        seen.add(s)
        # RREF shape: each row leads with 1, at increasing pivots, zero
        # elsewhere in its pivot column
        pivots = [next(j for j, v in enumerate(row) if v) for row in s]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert s[i][p] == 1
            for i2 in range(len(s)):
                if i2 != i:
                    assert s[i2][p] == 0
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_enumeration_order_deterministic():
    first = list(enumerate_subspaces(4, 2, field(2)))[:4]
    pivots = [s.pivots for s in first]
    assert pivots == [(0, 1)] * 4
    again = list(enumerate_subspaces(4, 2, field(2)))[:4]
    assert first == again


def test_complementary_examples():
    f = field(2)
    s12 = coord_subspace(4, (0, 1))
    s34 = coord_subspace(4, (2, 3))
    assert complementary(s12, s34, f)
    assert not complementary(s12, s12, f)
    other = Subspace(4, ((0, 1, 1, 0), (0, 0, 0, 1)), (1, 3))
    assert complementary(s12, other, f)


def test_complementary_ambient_mismatch():
    f = field(2)
    with pytest.raises(ValueError):
        complementary(coord_subspace(4, (0,)), coord_subspace(3, (0,)), f)


@pytest.mark.parametrize("q", [2, 3])
def test_complementary_symmetric(q):
    f = field(q)
    subs = list(enumerate_subspaces(4, 2, f))
    for s1 in subs[::5]:
        for s2 in subs[::7]:
            assert complementary(s1, s2, f) == complementary(s2, s1, f)


def test_complementary_general_q_matches_bits():
    f2 = field(2)
    subs = list(enumerate_subspaces(4, 2, f2))
    for s1 in subs:
        for s2 in subs:
            bit = complementary_bits(s1.bit_rows(), s2.bit_rows())
            # complementary() runs the generic elimination over every field
            by_pivot = complementary(s1, s2, f2)
            assert bit == by_pivot


def _member(f, s):
    """s in the representation of linalg.members over f: its RREF rows."""
    return s.bit_rows() if f.q == 2 else s.basis


def _canonical(f, rows):
    """The member that rows span: its RREF rows, as linalg.members lists them."""
    return rref_bits(rows)[0] if f.q == 2 else rref(rows, f)[0]


def _graphs(f, d, s1) -> list:
    """The members spanned by the graphs that complement_candidates lists for s1."""
    return [_canonical(f, t) for t in product(*linalg.complement_candidates(d, s1, f))]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_pair_test_matches_complementary(q):
    # the graphs of each S1 are exactly its complements under the
    # reference's per-pair eliminations, each listed once, and there are
    # q^(e1 (d - e1)) of them: every S1 where |X_e1| |X_(d-e1)| <= 20,000;
    # beyond that (q = 4, 5, 9 at d = 4) a seeded sample of S1
    f = field(q)
    rng = random.Random(q)
    against = pair_test(f)
    for d in range(1, 5):
        x = [[_member(f, s) for s in enumerate_subspaces(d, e, f)] for e in range(d + 1)]
        for e1 in range(d + 1):
            x1, x2 = x[e1], x[d - e1]
            if len(x1) * len(x2) > 20_000:
                x1 = rng.sample(x1, max(1, 20_000 // len(x2)))
            for s1 in x1:
                graphs = _graphs(f, d, s1)
                assert len(graphs) == len(set(graphs)) == q ** (e1 * (d - e1)), (d, e1)
                assert set(graphs) == set(filter(against(s1), x2)), (d, e1)


def _span(f, d, rows) -> list:
    """Every vector of the span of tuple rows, in odometer order over the
    coefficients (last row fastest), built from the definition."""
    out = []
    for coeffs in product(f.elements(), repeat=len(rows)):
        v = [0] * d
        for c, row in zip(coeffs, rows):
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, row)]
        out.append(tuple(v))
    return out


@pytest.mark.parametrize("q", sorted(FIXED_MODULI))
def test_complement_candidates_over_every_field(q):
    # per non-pivot column f, in order, e_f + x for every x of the span in
    # odometer order over x's coordinates, in the members' representation:
    # every member at d <= 2, a seeded sample of 12 per dimension at d = 3, 4
    # (d = 3 above F_9)
    f = field(q)
    rng = random.Random(q)
    for d in range(1, 4 if q > 9 else 5):
        for e in range(d + 1):
            subs = list(enumerate_subspaces(d, e, f))
            for s in subs if d <= 2 else rng.sample(subs, min(12, len(subs))):
                span = _span(f, d, s.basis)
                want = [
                    [tuple(f.add(x, int(j == c)) for j, x in enumerate(v)) for v in span]
                    for c in range(d)
                    if c not in s.pivots
                ]
                if q == 2:
                    want = [[_row_bits(v) for v in rows] for rows in want]
                assert linalg.complement_candidates(d, _member(f, s), f) == want, (d, s)


def _row_bits(row) -> int:
    return sum(v << j for j, v in enumerate(row))


def _random_subspace_bits(rng, d, e):
    """A seeded random e-subspace of F_2^d, as its RREF bitmask rows."""
    while True:
        red, _ = rref_bits([rng.randrange(1 << d) for _ in range(e)])
        if len(red) == e:
            return red


@pytest.mark.parametrize("d", [9, 10])
def test_scan_matches_reference_on_two_byte_rows(d):
    # rows past one byte: for m = 1..4 the first, the last and a seeded
    # (d - m)-space S, against every 2-space at m = 2 and 3,000 seeded random
    # m-spaces otherwise.  An m-space T is a complement of S iff it meets
    # each of S's m cosets e_f + S, so the m-spaces that meet every list of
    # complement_candidates are exactly the reference's complements, and at
    # m = 2 they number 2^(2 (d - 2))
    f = field(2)
    rng = random.Random(d)
    against = pair_test(f)
    for m in range(1, 5):
        first = next(linalg.members(d, d - m, f))
        last = tuple(1 << c for c in range(m, d))  # the last pattern has no free entry
        if m == 2:
            scanned = list(linalg.members(d, m, f))
        else:
            scanned = [_random_subspace_bits(rng, d, m) for _ in range(3000)]
        for s in (first, last, _random_subspace_bits(rng, d, d - m)):
            cosets = list(map(set, linalg.complement_candidates(d, s, f)))
            assert list(map(len, cosets)) == [1 << (d - m)] * m
            tally = sum(all(not c.isdisjoint(_bits_span(t)) for c in cosets) for t in scanned)
            assert tally == sum(map(against(s), scanned)), m
            if m == 2:
                assert tally == 1 << 2 * (d - 2)


def _bits_span(rows) -> list:
    out = [0]
    for b in rows:
        out += [x ^ b for x in out]
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_complement_rows_match_complementary(q):
    # every pair of subspaces of (F_q)^d, d <= 3, including e = 0, e1 + e2 != d
    # and an empty members2
    f = field(q)
    for d in range(1, 4):
        x = [list(enumerate_subspaces(d, e, f)) for e in range(d + 1)]
        for e1, e2 in product(range(d + 1), repeat=2):
            for x2 in (x[e2], []):
                m1, m2 = [_member(f, s) for s in x[e1]], [_member(f, s) for s in x2]
                rows = list(linalg.complement_rows(f, m1, m2))
                assert len(rows) == len(x[e1])
                for s1, row in zip(x[e1], rows):
                    want = [complementary(s1, s2, f) for s2 in x2]
                    assert [bool(row >> j & 1) for j in range(len(x2))] == want
                    assert row >> len(x2) == 0


def _complement_count(d, e1, q):
    # the graphs of the span of the first e1 unit vectors: each a complement
    # under the reference, each listed once; their number
    f = field(q)
    s1 = _member(f, coord_subspace(d, tuple(range(e1))))
    graphs = _graphs(f, d, s1)
    assert len(set(graphs)) == len(graphs)
    assert all(map(pair_test(f)(s1), graphs))
    return len(graphs)


@pytest.mark.parametrize("q", [2, 3])
def test_complement_count_regularity(q):
    for d in range(2, 7):
        for e1 in range(1, d):
            assert _complement_count(d, e1, q) == q ** (e1 * (d - e1))


def test_complement_count_regularity_d8():
    for e1 in (2, 4, 6):
        assert _complement_count(8, e1, 2) == 2 ** (e1 * (8 - e1))


def test_rank_bits_and_rref_bits():
    rows = [0b1100, 0b0110, 0b1010]  # third is the sum of the first two
    assert rank_bits(rows) == 2
    red, piv = rref_bits(rows)
    assert piv == (1, 2)
    assert red == (0b1010, 0b1100)


def test_nullspace_matches_bits():
    f = field(2)
    rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
    ns = nullspace(rows, f, 4)
    assert ns.e == 2
    bit_ns = nullspace_bits([0b0011, 0b1100], 4)
    assert ns.bit_rows() == bit_ns
    # every kernel vector pairs to zero with every row
    for row_bits in (0b0011, 0b1100):
        for v in bit_ns:
            assert (v & row_bits).bit_count() % 2 == 0
