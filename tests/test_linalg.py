import random
from itertools import product
from math import prod

import pytest

from oppmix import linalg
from oppmix.exactnum import gaussian_binomial
from oppmix.gf import field
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_pair_test_matches_complementary(q):
    # The projection scan of S1 against every e2-subspace counts what the
    # reference's per-pair eliminations count, for every (e1, e2), e1 + e2
    # above, at and below d included: every S1 where |X_e1| |X_e2| <= 20,000;
    # beyond that (q = 4, 5, 9 at d = 4) a seeded sample of S1.
    f = field(q)
    rng = random.Random(q)
    against = pair_test(f)
    for d in range(1, 5):
        x = [list(enumerate_subspaces(d, e, f)) for e in range(d + 1)]
        for e1, e2 in product(range(d + 1), repeat=2):
            x1, x2 = x[e1], [_member(f, s) for s in x[e2]]
            if len(x1) * len(x2) > 20_000:
                x1 = rng.sample(x1, max(1, 20_000 // len(x2)))
            fixed = [_member(f, s) for s in x1]
            want = [sum(map(against(s1), x2)) for s1 in fixed]
            assert linalg.complement_hits(f, d, fixed, x2) == want, (d, e1, e2)


@pytest.mark.parametrize("m", range(5))
def test_gf2_independence_decider_accepts_exactly_the_bases(m):
    # modulo the zero space the projection is the identity, so the decider
    # judges m-tuples of vectors of F_2^m by their minors: it accepts the
    # prod (2^m - 2^i) ordered bases, and agrees with the reference
    # elimination on every tuple
    tuples = list(product(range(1 << m), repeat=m))
    (flags,) = (list(b"".join(f)) for f in linalg._independent_gf2(m, [()], tuples))
    assert sum(flags) == prod((1 << m) - (1 << i) for i in range(m))
    assert flags == [complementary_bits((), t) for t in tuples]


@pytest.mark.parametrize("m,r", [(4, 2), (4, 3), (2, 1), (3, 4), (5, 2), (5, 5), (6, 4)])
def test_gf2_independence_of_other_shapes(m, r):
    # r rows in F_2^m with r != m, or m above 4: the span count, not the minors
    rng = random.Random(m * 10 + r)
    tuples = [tuple(rng.randrange(1 << m) for _ in range(r)) for _ in range(400)]
    (flags,) = (list(b"".join(f)) for f in linalg._independent_gf2(m, [()], tuples))
    assert flags == [complementary_bits((), t) for t in tuples]
    assert any(flags) == (r <= m) and not all(flags)


def _random_subspace_bits(rng, d, e):
    """A seeded random e-subspace of F_2^d, as its RREF bitmask rows."""
    while True:
        red, _ = rref_bits([rng.randrange(1 << d) for _ in range(e)])
        if len(red) == e:
            return red


@pytest.mark.parametrize("d", [9, 10])
def test_scan_matches_reference_on_two_byte_rows(d):
    # rows of two bytes: for m = 1..4 the first, the last and a seeded
    # (d - m)-subspace, each scanned against every 2-subspace at m = 2 and
    # against 3,000 seeded random m-subspaces otherwise
    f = field(2)
    rng = random.Random(d)
    against = pair_test(f)
    for m in range(1, 5):
        first = next(linalg.members(d, d - m, f))
        last = tuple(1 << c for c in range(m, d))  # the last pattern has no free entry
        fixed = [first, last, _random_subspace_bits(rng, d, d - m)]
        if m == 2:
            scanned = list(linalg.members(d, m, f))
        else:
            scanned = [_random_subspace_bits(rng, d, m) for _ in range(3000)]
        want = [sum(map(against(s), scanned)) for s in fixed]
        assert linalg.complement_hits(f, d, fixed, scanned) == want, m


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
    # the scan of the span of the first e1 unit vectors against every complement dimension
    f = field(q)
    s1 = _member(f, coord_subspace(d, tuple(range(e1))))
    (hits,) = linalg.complement_hits(f, d, [s1], list(linalg.members(d, d - e1, f)))
    return hits


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
