from dataclasses import replace
from fractions import Fraction

import pytest

from oppmix import bounds, exactnum, forms, linalg, oracle, spectrum
from oppmix.gf import field
from reference import (
    biadjacency_rows,
    col_sums,
    dense_factor_product,
    edges_by_compress,
    mixing_verdicts_by_fractions,
    row_sums,
)

# Oracle-enumerable fixtures, keyed by ambient field size Q:
# Q <= 3 with d <= 6, Q <= 5 with d = 4, Q = 2 with d = 8; hermitian spaces
# live over F_{q^2} so their small-d cases ride along at Q = 4 and Q = 9.
ORTHOGONAL_CASES = sorted(
    {(q, d) for q in (2, 3) for d in (4, 6)} | {(4, 4), (5, 4), (2, 8)}
)
SYMPLECTIC_CASES = ORTHOGONAL_CASES
HERMITIAN_CASES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


def even_splits(d):
    return [(e1, d - e1) for e1 in range(2, d - 1, 2) if e1 >= d - e1]


def all_splits(d):
    return [(e1, d - e1) for e1 in range(1, d) if e1 >= d - e1]


@pytest.mark.parametrize("q,d", ORTHOGONAL_CASES)
def test_orthogonal_counts_match_closed_form(q, d):
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", d, q, eps)
        for e1, e2 in even_splits(d):
            for e in {e1, e2}:
                buckets, degenerate = oracle.classify_partition(form, e)
                total = 0
                for sigma in (1, -1):
                    got = len(buckets.get(sigma, ()))
                    want = exactnum.count_nondegenerate(
                        "orthogonal", e, d - e, q, eps=eps, sigma1=sigma
                    )
                    assert got == want, (q, d, eps, e, sigma)
                    total += got
                assert total + degenerate == exactnum.gaussian_binomial(d, e, q)


@pytest.mark.parametrize("q,d", SYMPLECTIC_CASES)
def test_symplectic_counts_match_closed_form(q, d):
    form = forms.standard_form("symplectic", d, q)
    for e1, e2 in even_splits(d):
        for e in {e1, e2}:
            y = oracle.build_yset(form, e)
            assert y.count == exactnum.count_nondegenerate("symplectic", e, d - e, q)


@pytest.mark.parametrize("q,d", HERMITIAN_CASES)
def test_hermitian_counts_match_closed_form(q, d):
    form = forms.standard_form("hermitian", d, q)
    for e1, e2 in all_splits(d):
        for e in {e1, e2}:
            y = oracle.build_yset(form, e)
            assert y.count == exactnum.count_nondegenerate("hermitian", e, d - e, q)


@pytest.mark.parametrize(
    "kind,d,q,eps",
    [
        ("orthogonal", 6, 2, 1),
        ("orthogonal", 6, 2, -1),
        ("orthogonal", 4, 3, 1),
        ("orthogonal", 4, 3, -1),
        ("orthogonal", 4, 4, 1),
        ("orthogonal", 4, 4, -1),
        ("symplectic", 6, 2, None),
        ("orthogonal", 4, 5, 1),
        ("orthogonal", 4, 5, -1),
        ("symplectic", 4, 3, None),
        ("hermitian", 3, 2, None),
        ("hermitian", 4, 2, None),
    ],
)
def test_memoized_partition_matches_per_member_classification(kind, d, q, eps):
    form = forms.standard_form(kind, d, q, eps)
    for e in range(0, d) if kind == "hermitian" else range(0, d - 1, 2):
        want: dict = {}
        degenerate = 0
        for s in linalg.enumerate_subspaces(d, e, form.field):
            r = forms.restrict(form, s)
            if not forms.is_nondegenerate(r):
                degenerate += 1
                continue
            c = forms.orthogonal_type(r) if kind == "orthogonal" else True
            want.setdefault(c, []).append(s.bit_rows() if form.field.q == 2 else s)
        want = {c: tuple(members) for c, members in want.items()}
        assert oracle.classify_partition(form, e) == (want, degenerate), e


# (kind, d, q, eps): every generic-field (q != 2) fixture family, with the
# d = 6 spaces of the benchmarked q = 3 counts
GENERIC_KEY_CASES = (
    [("orthogonal", d, q, eps) for q in (3, 4, 5) for d in (4, 6) if q == 3 or d == 4
     for eps in (1, -1)]
    + [("symplectic", d, q, None) for q in (3, 5) for d in (4, 6) if q == 3 or d == 4]
    + [("hermitian", d, q, None) for q, d in HERMITIAN_CASES]
)


@pytest.mark.parametrize("kind,d,q,eps", GENERIC_KEY_CASES)
def test_generic_key_matches_restrict_bytes(kind, d, q, eps):
    # the key keeps part of the gram; decoded, it is the whole restricted
    # form, gram and Q values, of every member, and the walk lists every
    # member once in the canonical order
    form = forms.standard_form(kind, d, q, eps)
    cls = oracle._classifier(form)
    step = 1 if kind == "hermitian" else 2  # admissible: even e unless hermitian
    for e in range(0, d + 1, step):
        walked, keys = [], set()
        if e == 0:  # not walked: the zero space has no last row, and the empty key
            walked.append(linalg.Subspace(d, (), ()))
            keys.add(())
            assert oracle._decode(form, ()) == forms.restrict(form, walked[0])
        for pattern, prefix, lasts, columns, tails in oracle._walk(form, e, cls) if e else ():
            assert len(columns) == e - 1 and len(tails) == len(lasts)
            for last, tail in zip(lasts, tails):
                s = linalg.Subspace(d, prefix + (last,), pattern)
                assert oracle._decode(form, (*columns, tail)) == forms.restrict(form, s), (e, s)
                walked.append(s)
                keys.add((*columns, tail))
        assert walked == list(linalg.members(d, e, form.field)), e
        # one key, and so one verdict, per distinct restricted form
        assert len(keys) == len({forms.restrict(form, s) for s in walked}), e


def test_partition_budget_checked_after_cache_fill():
    form = forms.standard_form("symplectic", 4, 2)
    oracle.classify_partition(form, 2)
    with pytest.raises(linalg.BudgetError):
        oracle.classify_partition(form, 2, budget=10)


def test_build_yset_validation():
    form = forms.standard_form("orthogonal", 4, 2, 1)
    with pytest.raises(ValueError):
        oracle.build_yset(form, 2)  # sigma required
    spform = forms.standard_form("symplectic", 4, 2)
    with pytest.raises(ValueError):
        oracle.build_yset(spform, 2, sigma=1)


def test_build_yset_budget():
    form = forms.standard_form("symplectic", 8, 3)
    with pytest.raises(linalg.BudgetError):
        oracle.build_yset(form, 4, budget=10_000)


def test_zero_budget_is_a_budget():
    # budget=0 caps the enumeration at nothing; only None means the default
    form = forms.standard_form("symplectic", 4, 2)
    with pytest.raises(linalg.BudgetError, match="exceed budget 0"):
        oracle.classify_partition(form, 2, budget=0)


def test_yset_examples():
    spform = forms.standard_form("symplectic", 4, 2)
    assert oracle.build_yset(spform, 2).count == 20
    oform = forms.standard_form("orthogonal", 4, 2, 1)
    assert oracle.build_yset(oform, 2, -1).count == 2
    hform = forms.standard_form("hermitian", 2, 2)
    assert oracle.build_yset(hform, 1).count == 2


def test_hermitian_tight_case_proportion():
    hform = forms.standard_form("hermitian", 2, 2)
    y = oracle.build_yset(hform, 1)
    rep = oracle.count_complementary(y, y)
    assert rep.pairs == 2
    assert rep.proportion == Fraction(1, 2)
    assert rep.proportion == 1 - Fraction(2, 2**2)


def test_full_pairs_no_form_filter_regularity():
    # with no form in play, density of complementary pairs is k/|X|
    f = field(2)
    subs = tuple(linalg.enumerate_subspaces(4, 2, f))
    hits = sum(
        1 for s1 in subs for s2 in subs if linalg.complementary(s1, s2, f)
    )
    assert Fraction(hits, len(subs) ** 2) == Fraction(2 ** (2 * 2), len(subs))


def test_transitive_agrees_with_full_pairs():
    spform = forms.standard_form("symplectic", 4, 2)
    y = oracle.build_yset(spform, 2)
    full = oracle.count_complementary(y, y)
    fast = oracle.count_complementary_transitive(y, y)
    assert full.proportion == fast.proportion
    assert full.pairs == fast.pairs

    hform = forms.standard_form("hermitian", 2, 2)
    yh = oracle.build_yset(hform, 1)
    assert (
        oracle.count_complementary(yh, yh).proportion
        == oracle.count_complementary_transitive(yh, yh).proportion
        == Fraction(1, 2)
    )

    oform = forms.standard_form("orthogonal", 4, 2, 1)
    for s1 in (1, -1):
        for s2 in (1, -1):
            y1 = oracle.build_yset(oform, 2, s1)
            y2 = oracle.build_yset(oform, 2, s2)
            assert (
                oracle.count_complementary(y1, y2).proportion
                == oracle.count_complementary_transitive(y1, y2).proportion
            )


def test_transitive_agrees_on_general_q():
    spform = forms.standard_form("symplectic", 4, 3)
    y = oracle.build_yset(spform, 2)
    assert (
        oracle.count_complementary(y, y).proportion
        == oracle.count_complementary_transitive(y, y).proportion
    )


def test_transitive_agrees_with_full_pairs_on_o8_plus_gf2():
    # the paper's new F_2 orthogonal case: O+(8, 2), e1 = e2 = 4, both of type +
    y = oracle.build_yset(forms.standard_form("orthogonal", 8, 2, 1), 4, 1)
    assert y.count == 67_200
    full = oracle.count_complementary(y, y)
    assert full.pairs == oracle.count_complementary_transitive(y, y).pairs == 1_455_820_800


def test_full_pairs_count_matches_transitive_general_q():
    # 650^2 = 422,500 pairs over F_5, counted serially by point incidence
    y = oracle.build_yset(forms.standard_form("symplectic", 4, 5), 2)
    assert y.count == 650
    full = oracle.count_complementary(y, y)
    assert full.pairs == oracle.count_complementary_transitive(y, y).pairs == 328_250


def test_biadjacency_examples():
    b = oracle.build_biadjacency(1, 1, 2)
    assert biadjacency_rows(b) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    b712 = oracle.build_biadjacency(2, 1, 2)
    assert b712.n1 == 7 and b712.n2 == 7
    assert set(row_sums(b712)) == {4}
    b2222 = oracle.build_biadjacency(2, 2, 2)
    assert b2222.n1 == 35
    assert set(row_sums(b2222)) == {16}
    assert set(col_sums(b2222)) == {16}


@pytest.mark.parametrize("e1,e2", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_biadjacency_index_order_gf2(e1, e2):
    # mixing-check seeds pick rows and columns by index in enumeration order
    f = field(2)
    x1 = list(linalg.enumerate_subspaces(e1 + e2, e1, f))
    x2 = list(linalg.enumerate_subspaces(e1 + e2, e2, f))
    want = tuple(tuple(int(linalg.complementary(s1, s2, f)) for s2 in x2) for s1 in x1)
    assert biadjacency_rows(oracle.build_biadjacency(e1, e2, 2)) == want


def test_biadjacency_cap():
    with pytest.raises(linalg.BudgetError):
        oracle.build_biadjacency(3, 3, 3, cap=100)


def test_biadjacency_cap_checked_after_cache_fill():
    oracle.build_biadjacency(2, 1, 2)
    with pytest.raises(linalg.BudgetError):
        oracle.build_biadjacency(2, 1, 2, cap=3)


@pytest.mark.parametrize(
    "e1,e2,q",
    [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2)],
)
def test_biadjacency_regular(e1, e2, q):
    b = oracle.build_biadjacency(e1, e2, q)
    k = q ** (e1 * e2)
    assert set(row_sums(b)) == {k}
    assert set(col_sums(b)) == {k}


@pytest.mark.parametrize(
    "e1,e2,q",
    [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)],
)
def test_annihilator(e1, e2, q):
    assert oracle.annihilator_check(e1, e2, q)


def test_annihilator_square_example():
    # spot check the (1,1,2) identity by hand: M = (J - I)^2 = J + I
    b = oracle.build_biadjacency(1, 1, 2)
    rows = biadjacency_rows(b)
    m = oracle._mat_mul(rows, list(zip(*rows)))
    assert m == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


@pytest.mark.parametrize("e1,e2,q", [(3, 2, 2), (2, 2, 3)])
def test_gram_popcounts_match_dense_product(e1, e2, q):
    b = oracle.build_biadjacency(e1, e2, q)
    rows = biadjacency_rows(b)
    assert b.gram() == oracle._mat_mul(rows, list(zip(*rows)))


@pytest.mark.parametrize("e1,e2,q", [(2, 1, 3), (2, 2, 3), (1, 2, 3)])
def test_biadjacency_rows_from_masks_match_elimination(e1, e2, q):
    f = field(q)
    x1 = list(linalg.enumerate_subspaces(e1 + e2, e1, f))
    x2 = list(linalg.enumerate_subspaces(e1 + e2, e2, f))
    want = tuple(tuple(int(linalg.complementary(s1, s2, f)) for s2 in x2) for s1 in x1)
    b = oracle.build_biadjacency(e1, e2, q)
    assert biadjacency_rows(b) == want
    assert row_sums(b) == [sum(r) for r in want]
    assert col_sums(b) == [sum(c) for c in zip(*want)]


@pytest.mark.parametrize("e1,e2,q", [(2, 2, 3), (3, 2, 2)])
def test_mixing_edges_match_compress_sum(e1, e2, q):
    rows = biadjacency_rows(oracle.build_biadjacency(e1, e2, q))
    for idx1, idx2 in oracle.random_subset_pairs(e1, e2, q, trials=30, seed=5):
        assert oracle.mixing_check(e1, e2, q, idx1, idx2).edges == edges_by_compress(
            rows, idx1, idx2
        )


@pytest.mark.parametrize("e1,e2,q", [(3, 2, 2), (2, 2, 3)])
def test_annihilator_product_fails_without_any_one_eigenvalue(e1, e2, q):
    m = oracle.build_biadjacency(e1, e2, q).gram()
    spec = spectrum.eigen_exponents(max(e1, e2), min(e1, e2))
    lams = [spec.eigenvalue_squared(q, j) for j in range(len(spec.exponents))]
    assert oracle._annihilates(m, lams)
    for j in range(len(lams)):
        assert not oracle._annihilates(m, lams[:j] + lams[j + 1 :]), lams[j]


@pytest.mark.parametrize(
    "m,lams",
    [
        ([[0, 5, 0], [0, 0, -7], [0, 0, 0]], [0, 0]),  # -35 in the last column
        ([[0, 0, 0], [-1, 0, 0], [0, -1, 0]], [0, 0]),  # 1 in the first column
        ([[2, 1, 0], [0, 2, 1], [0, 0, 2]], [2, 2]),
        ([[-4, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 1, 0, 3]], [-4, 3]),
    ],
)
def test_annihilator_product_fails_on_one_nonzero_entry(m, lams):
    prod = dense_factor_product(m, lams)
    assert sum(v != 0 for row in prod for v in row) == 1
    assert not oracle._annihilates(m, lams)


@pytest.mark.parametrize("t", range(1, 13))
def test_annihilator_product_fields_do_not_alias(t):
    # the row (0, 2^t, -1) packs to 0 at field width t; the packed product must not
    m = [[0, 2**t, -1], [0, 0, 0], [0, 0, 0]]
    assert not oracle._annihilates(m, [0])


def test_trace_identities_fail_on_flipped_entry(monkeypatch):
    b = oracle.build_biadjacency(2, 2, 3)
    spec = spectrum.eigen_exponents(2, 2)
    lams = [spec.eigenvalue_squared(3, j) for j in range(3)]
    trace, frobenius = oracle._predicted_traces(4, 3, lams)
    m = b.gram()
    assert sum(m[i][i] for i in range(len(m))) == trace
    assert sum(v * v for row in m for v in row) == frobenius

    masks = list(b.masks)
    masks[7] ^= 1 << 11  # flip N[7][11]
    flipped = replace(b, masks=tuple(masks))
    m = flipped.gram()
    assert sum(m[i][i] for i in range(len(m))) != trace
    assert sum(v * v for row in m for v in row) != frobenius
    monkeypatch.setattr(oracle, "build_biadjacency", lambda *args: flipped)
    assert not oracle.annihilator_check(2, 2, 3)


@pytest.mark.parametrize("e1,e2,q", [(2, 2, 3), (3, 2, 2)])
def test_mixing_integer_verdicts_match_fractions(e1, e2, q):
    b = oracle.build_biadjacency(e1, e2, q)
    full1, full2 = list(range(b.n1)), list(range(b.n2))
    boundary = [
        (full1, full2), (full1, [0]), ([0], full2), ([0], [0]), ([], full2), (full1, []), ([], [])
    ]
    seeded = oracle.random_subset_pairs(e1, e2, q, trials=30, seed=9)
    k, qd = q ** (e1 * e2), q ** (e1 + e2)
    for idx1, idx2 in [*boundary, *seeded]:
        rep = oracle.mixing_check(e1, e2, q, idx1, idx2)
        want = mixing_verdicts_by_fractions(b.n1, b.n2, k, qd, rep.edges, len(idx1), len(idx2))
        assert (rep.holds, rep.tight) == want, (len(idx1), len(idx2))


def test_mixing_integer_verdicts_match_fractions_on_banded_graph(monkeypatch):
    # a banded 81-regular matrix of the (2, 2, 3) shape: unlike the real graph,
    # its prefix pairs break the inequality, meet it and hold it with little room
    b = oracle.build_biadjacency(2, 2, 3)
    n, k = b.n1, 3**4
    band, full = (1 << k) - 1, (1 << n) - 1
    masks = tuple(((band << i) | (band >> (n - i))) & full for i in range(n))
    monkeypatch.setattr(oracle, "build_biadjacency", lambda *args: replace(b, masks=masks))
    seen = set()
    for s1 in range(0, n + 1, 5):
        for s2 in range(0, n + 1, 5):
            rep = oracle.mixing_check(2, 2, 3, range(s1), range(s2))
            want = mixing_verdicts_by_fractions(n, n, k, 3**4, rep.edges, s1, s2)
            assert (rep.holds, rep.tight) == want, (s1, s2)
            seen.add(want)
    assert seen == {(False, False), (True, False), (True, True)}


def test_mixing_boundaries():
    n = oracle.build_biadjacency(2, 2, 2).n1
    full = list(range(n))
    for idx1, idx2 in [(full, full), (full, [3]), ([3], full), ([], full)]:
        rep = oracle.mixing_check(2, 2, 2, idx1, idx2)
        assert rep.holds and rep.tight


def test_mixing_check_rejects_column_out_of_range():
    with pytest.raises(IndexError):
        oracle.mixing_check(2, 1, 2, [0], [7])  # n2 = 7
    with pytest.raises(IndexError):
        oracle.mixing_check(2, 1, 2, [0], [-1])


def test_mixing_check_rejects_row_out_of_range():
    # a negative index must not wrap to the last row, nor one past the end
    # surface as a bare tuple IndexError
    with pytest.raises(IndexError, match=r"e1-space indices must lie in range\(7\)"):
        oracle.mixing_check(2, 1, 2, [-1, 6], [0, 1])  # n1 = 7
    with pytest.raises(IndexError, match=r"e1-space indices must lie in range\(7\)"):
        oracle.mixing_check(2, 1, 2, [7], [0])


def test_mixing_suite_gamma22_f2():
    reports = oracle.mixing_suite(2, 2, 2, trials=100, seed=0)
    assert len(reports) == 109  # 9 structured cases + 100 seeded random pairs
    assert all(r.holds for r in reports)
    assert all(r.charpoly_ok for r in reports if r.charpoly_ok is not None)
    assert any(r.charpoly_ok for r in reports)


def test_mixing_suite_gamma21_f3():
    reports = oracle.mixing_suite(2, 1, 3, trials=100, seed=0)
    assert all(r.holds for r in reports)
    assert all(r.charpoly_ok for r in reports if r.charpoly_ok is not None)


def test_mixing_suite_seed_deterministic():
    a = [(r.alpha1, r.alpha2, r.edges) for r in oracle.mixing_suite(2, 1, 2, 10, seed=7)]
    b = [(r.alpha1, r.alpha2, r.edges) for r in oracle.mixing_suite(2, 1, 2, 10, seed=7)]
    assert a == b


def test_orthogonal_exception_list_verbatim():
    assert bounds.THEOREM["orthogonal"].exceptions == (
        (2, 1, 1),
        (3, 1, 1),
        (4, 1, 1),
        (5, 1, 1),
        (2, 1, 2),
        (2, 1, 3),
        (2, 2, 2),
    )


def test_double_counting_identity_d8_exception():
    # (q, m2, m1) = (2, 1, 3): hits(S1 -> Y2) |Y1| = hits(S2 -> Y1) |Y2|
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", 8, 2, eps)
        for sigma1 in (1, -1):
            for sigma2 in (1, -1):
                y1 = oracle.build_yset(form, 6, sigma1)
                y2 = oracle.build_yset(form, 2, sigma2)
                forward = oracle.count_complementary_transitive(y1, y2)
                backward = oracle.count_complementary_transitive(y2, y1)
                assert forward.pairs == backward.pairs > 0, (eps, sigma1, sigma2)


def test_exception_report_small():
    form = forms.standard_form("orthogonal", 4, 2, 1)
    threshold = bounds.THEOREM["orthogonal"].threshold(2, 2, 2)
    rep = oracle.count_case(form, 2, 2, -1, -1, threshold, full_pairs=True)
    assert rep.y1_count == rep.y2_count == 2
    assert rep.proportion == Fraction(1, 2)
    assert rep.threshold == Fraction(1, 4)
    assert rep.passed
    fast = oracle.count_case(form, 2, 2, -1, -1, threshold)
    assert fast.proportion == rep.proportion
