import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import oppmix
from oppmix import bounds, cli, exactnum, forms, linalg, oracle, spectrum, sweep
from oppmix.gf import field
from reference import (
    biadjacency_rows,
    bilinear_masks_gf2,
    classify,
    classify_orthogonal_gf2,
    col_sums,
    complementary,
    dense_factor_product,
    edges_by_compress,
    enumerate_subspaces,
    mat_mul,
    mixing_verdicts_by_fractions,
    pair_test,
    quad_values_gf2,
    restrict,
    row_sums,
    symplectic_nondeg_gf2,
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


def classify_every_member(form, e):
    """The codes of all e-subspaces in enumeration order, from forms.classifier alone."""
    codes_of = forms.classifier(form, e)
    patterns = combinations(range(form.d), e)
    return b"".join(codes_of(linalg.row_candidates(form.d, p, form.field)) for p in patterns)


@pytest.mark.parametrize("q,d", ORTHOGONAL_CASES)
def test_orthogonal_counts_match_closed_form(q, d):
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", d, q, eps)
        for e1, e2 in even_splits(d):
            for e in {e1, e2}:
                ysets = oracle.build_ysets(form, e)
                for sigma in (1, -1):
                    want = exactnum.count_nondegenerate(
                        "orthogonal", e, d - e, q, eps=eps, sigma1=sigma
                    )
                    assert ysets[sigma].count == want, (q, d, eps, e, sigma)


@pytest.mark.parametrize("q,d", SYMPLECTIC_CASES)
def test_symplectic_counts_match_closed_form(q, d):
    form = forms.standard_form("symplectic", d, q)
    for e1, e2 in even_splits(d):
        for e in {e1, e2}:
            y = oracle.build_ysets(form, e)[None]
            assert y.count == exactnum.count_nondegenerate("symplectic", e, d - e, q)


@pytest.mark.parametrize("q,d", HERMITIAN_CASES)
def test_hermitian_counts_match_closed_form(q, d):
    form = forms.standard_form("hermitian", d, q)
    for e1, e2 in all_splits(d):
        for e in {e1, e2}:
            y = oracle.build_ysets(form, e)[None]
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
        *[("orthogonal", 4, q, eps) for q in (7, 8, 9) for eps in (1, -1)],
        ("symplectic", 4, 4, None),
        ("symplectic", 4, 7, None),
        ("hermitian", 3, 4, None),
        ("hermitian", 2, 5, None),
    ],
)
def test_memoized_partition_matches_per_member_classification(kind, d, q, eps):
    form = forms.standard_form(kind, d, q, eps)
    for e in range(1, d) if kind == "hermitian" else range(2, d - 1, 2):
        want: dict = {}
        degenerate = 0
        for s in enumerate_subspaces(d, e, form.field):
            c = classify(restrict(form, s))
            if c is None:
                degenerate += 1
                continue
            sigma = None if c is True else c
            want.setdefault(sigma, []).append(s.bit_rows() if form.field.q == 2 else s.basis)
        ysets = oracle.build_ysets(form, e)
        assert {sigma: y.members for sigma, y in ysets.items()} == {
            sigma: tuple(members) for sigma, members in want.items()
        }, e
        kept = sum(y.count for y in ysets.values())
        assert exactnum.gaussian_binomial(d, e, form.field.q) - kept == degenerate, e


# (kind, d, q, eps): every generic-field (q != 2) fixture family, with the
# d = 6 spaces of the benchmarked q = 3 counts
GENERIC_KEY_CASES = (
    [("orthogonal", d, q, eps) for q in (3, 4, 5) for d in (4, 6) if q == 3 or d == 4
     for eps in (1, -1)]
    + [("symplectic", d, q, None) for q in (3, 5) for d in (4, 6) if q == 3 or d == 4]
    + [("hermitian", d, q, None) for q, d in HERMITIAN_CASES]
)


def reference_code(form, s) -> int:
    """The member code (forms.verdicts) of s, from the reference classification;
    an odd quadratic restriction, which classify refuses, is degenerate."""
    if form.kind == "orthogonal" and s.e % 2:
        return 0
    return forms.verdicts(form.kind).index(classify(restrict(form, s)))


@pytest.mark.parametrize("kind,d,q,eps", GENERIC_KEY_CASES)
def test_generic_key_matches_restrict_bytes(kind, d, q, eps):
    # the lanes of one pivot pattern hold, member by member in the canonical
    # order, the restricted form: own(b_i) is Q(b_i) (orthogonal) or B(b_i, b_i),
    # and lane (i, j) is B(b_i, b_j), gram entries below the diagonal included
    form = forms.standard_form(kind, d, q, eps)
    lanes = forms._Lanes(form.field)
    owns, runs = forms._values(form, lanes)
    mirror = {"symplectic": form.field.neg, "hermitian": form.field.conj}.get(kind)
    mirror = lanes.table(mirror) if mirror else None
    step = 1 if kind == "hermitian" else 2  # even e unless hermitian, the whole space too
    for e in range(step, d + 1, step):
        subspaces = iter(enumerate_subspaces(d, e, form.field))
        for pattern in combinations(range(d), e):
            candidates = linalg.row_candidates(d, pattern, form.field)
            gram = forms._gram_lanes(candidates, owns, runs, mirror)
            for k, rows in enumerate(product(*candidates)):
                r = restrict(form, next(subspaces))
                for (i, j), lane in gram.items():
                    want = r.qdiag[i] if i == j and kind == "orthogonal" else r.gram[i][j]
                    assert lane[k] == lanes.enc[want], (e, pattern, rows, i, j)
        assert next(subspaces, None) is None


# (kind, d, q, eps): one form of each kind over every inventory field, at
# d <= 6, that a reference classification of every member can afford
REFERENCE_CASES = (
    [("orthogonal", d, 2, eps) for d in (2, 4, 6) for eps in (1, -1)]
    + [("orthogonal", d, 3, eps) for d in (2, 4, 6) for eps in (1, -1)]
    + [("orthogonal", 4, q, eps) for q in (4, 5, 7, 8, 9) for eps in (1, -1)]
    + [("orthogonal", 2, q, eps) for q in (16, 25) for eps in (1, -1)]
    + [("symplectic", d, q, None) for q in (2, 3) for d in (2, 4, 6)]
    + [("symplectic", 4, q, None) for q in (4, 5, 7, 8, 9)]
    + [("symplectic", 2, q, None) for q in (16, 25)]
    + [("hermitian", d, 2, None) for d in (1, 2, 3, 4, 5)]
    + [("hermitian", d, q, None) for q, d in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]]
)


@pytest.mark.parametrize("kind,d,q,eps", REFERENCE_CASES)
def test_member_codes_match_reference_classification(kind, d, q, eps):
    # every member of every dimension, odd ones and the whole space included,
    # is coded as the reference classifies its restricted form
    form = forms.standard_form(kind, d, q, eps)
    for e in range(1, d + 1):
        want = bytes(reference_code(form, s) for s in enumerate_subspaces(d, e, form.field))
        assert classify_every_member(form, e) == want, e


def test_counts_above_a_byte_match_reference_classification():
    # U(4, 4) at e = 3: (16^3 - 1)/15 = 273 points per member, so the byte
    # counters flush into two-byte counts once per member
    form = forms.standard_form("hermitian", 4, 4)
    want = bytes(reference_code(form, s) for s in enumerate_subspaces(4, 3, form.field))
    assert classify_every_member(form, 3) == want
    assert want.count(1) == exactnum.count_nondegenerate("hermitian", 3, 1, 4)


GF2_FORMS = [("orthogonal", 1), ("orthogonal", -1), ("symplectic", None)]


def reference_verdict_gf2(form):
    """Bitmask rows -> sigma, True or None, from tests/reference.py alone."""
    if form.kind == "orthogonal":
        qt = quad_values_gf2(form)
        return lambda rows: classify_orthogonal_gf2(qt, rows)
    bil = bilinear_masks_gf2(form)
    return lambda rows: True if symplectic_nondeg_gf2(bil, rows) else None


@pytest.mark.parametrize("d,e", [(4, 2), (6, 2), (6, 4), (8, 4)])
@pytest.mark.parametrize("kind,eps", GF2_FORMS)
def test_lane_partition_matches_reference_verdicts(kind, eps, d, e):
    # every member's lane verdict is its reference verdict, and the buckets
    # list the kept members in linalg.members' order
    form = forms.standard_form(kind, d, 2, eps)
    verdict = reference_verdict_gf2(form)
    want: dict = {}
    degenerate = 0
    for rows in linalg.members(d, e, form.field):
        c = verdict(rows)
        if c is None:
            degenerate += 1
        else:
            want.setdefault(None if c is True else c, []).append(rows)
    ysets = oracle.build_ysets(form, e)
    assert {sigma: y.members for sigma, y in ysets.items()} == {
        sigma: tuple(v) for sigma, v in want.items()
    }
    kept = sum(y.count for y in ysets.values())
    assert exactnum.gaussian_binomial(d, e, 2) - kept == degenerate


@pytest.mark.parametrize("kind,eps", GF2_FORMS)
def test_lane_partition_edge_dimensions(kind, eps):
    # the whole space (byte lanes at d = 8, wider lanes at d = 10), of the
    # form's own type, and the odd symplectic dimensions, all degenerate
    whole = forms.verdicts(kind).index(eps if kind == "orthogonal" else True)
    for d in (8, 10):
        form = forms.standard_form(kind, d, 2, eps)
        assert classify_every_member(form, d) == bytes([whole])
    if kind == "symplectic":
        for d, e in [(6, 1), (6, 3), (6, 5), (10, 9)]:
            form = forms.standard_form(kind, d, 2)
            assert classify_every_member(form, e) == bytes(exactnum.gaussian_binomial(d, e, 2))


@pytest.mark.parametrize("kind,eps", GF2_FORMS)
def test_wide_lanes_hold_the_byte_lane_counts(kind, eps, monkeypatch):
    # byte counters that flush into the wide counts after every point, or
    # every few, give the codes of counters that never flush
    form = forms.standard_form(kind, 6, 2, eps)
    for e in (1, 2, 3, 4):
        narrow = classify_every_member(form, e)
        for flush in (1, 2, 7):
            monkeypatch.setattr(forms, "_FLUSH", flush)
            assert classify_every_member(form, e) == narrow, (e, flush)
        monkeypatch.undo()


def test_lane_count_without_a_verdict_raises(monkeypatch):
    # a count that no verdict lists is an internal error, never a bucket
    form = forms.standard_form("orthogonal", 4, 2, 1)
    verdicts = dict(forms.verdicts_by_count("orthogonal", 2, 2))
    del verdicts[2]  # the hyperbolic plane's singular points
    monkeypatch.setattr(forms, "verdicts_by_count", lambda kind, e, q: verdicts)
    with pytest.raises(ArithmeticError, match="matches no verdict"):
        oracle.build_ysets(form, 2)
    argv = "count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 2 --e2 2 --q 2".split()
    assert cli.main(argv) == 4


def test_partition_budget_holds_on_a_second_build():
    form = forms.standard_form("symplectic", 4, 2)
    oracle.build_ysets(form, 2)
    with pytest.raises(exactnum.BudgetError):
        oracle.build_ysets(form, 2, budget=10)


def test_sizes_and_budget_come_before_enumeration(monkeypatch):
    # an inadmissible e and a build over budget raise before the first pivot
    # pattern's candidates are listed
    def enumerating(*args):
        pytest.fail("build_ysets enumerated before it was sized")

    monkeypatch.setattr(linalg, "row_candidates", enumerating)
    oform = forms.standard_form("orthogonal", 6, 2, 1)
    cases = [(oform, 0), (oform, 3), (oform, 6), (forms.standard_form("symplectic", 6, 2), 3)]
    cases += [(forms.standard_form("hermitian", 3, 2), e) for e in (0, 3)]
    for form, e in cases:
        with pytest.raises(ValueError):
            oracle.build_ysets(form, e)
    with pytest.raises(exactnum.BudgetError):
        oracle.build_ysets(forms.standard_form("symplectic", 8, 3), 4, budget=10_000)


def test_no_module_caches_a_build():
    # a caller that needs a build, a quad table or a biadjacency twice holds it;
    # the only memo caches in the package are these three small tables
    cached = set()
    for info in pkgutil.iter_modules(oppmix.__path__):
        module = importlib.import_module(f"oppmix.{info.name}")
        cached |= {
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_info")
        }
    assert cached == {"gf.field", "exactnum.bq", "bounds._relaxed_orthogonal"}


def test_one_build_per_form_and_dimension(monkeypatch):
    # one count_case call per exception form serves all its sign triples: the
    # orthogonal sweep's 56 count reports take 18 builds, and a count with
    # e1 = e2 builds once
    build = oracle.build_ysets
    calls = []

    def counting(form, e, budget=None):
        calls.append((form, e))
        return build(form, e, budget)

    monkeypatch.setattr(oracle, "build_ysets", counting)
    rep = sweep.verify_theorem("orthogonal")
    assert (len(calls), len(set(calls)), len(rep.count_reports)) == (18, 18, 56)
    calls.clear()
    assert cli.main("count --family symplectic --e1 2 --e2 2 --q 5".split()) == 0
    assert len(calls) == 1


def test_every_bucket_is_checked_at_build_time(capsys, monkeypatch):
    # a sigma = -1 bucket one member short fails its closed form, even in a
    # case that counts only sigma = +1 spaces
    classifier = forms.classifier

    def short_minus(form, e):
        codes_of, shorted = classifier(form, e), []

        def codes(candidates):
            out = codes_of(candidates)
            if b"\x02" in out and not shorted:  # the first type -1 member, coded degenerate
                shorted.append(out)
                out = out.replace(b"\x02", b"\x00", 1)
            return out

        return codes

    monkeypatch.setattr(forms, "classifier", short_minus)
    argv = "count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 2 --e2 2 --q 2"
    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: enumerated 1 non-degenerate 2-spaces")
    assert err.count("\n") == 1


def test_build_yset_budget():
    form = forms.standard_form("symplectic", 8, 3)
    with pytest.raises(exactnum.BudgetError):
        oracle.build_ysets(form, 4, budget=10_000)


def test_zero_budget_is_a_budget():
    # budget=0 caps the enumeration at nothing; only None means the default
    form = forms.standard_form("symplectic", 4, 2)
    with pytest.raises(exactnum.BudgetError, match="exceed budget 0"):
        oracle.build_ysets(form, 2, budget=0)


def test_yset_examples():
    spform = forms.standard_form("symplectic", 4, 2)
    assert oracle.build_ysets(spform, 2)[None].count == 20
    oform = forms.standard_form("orthogonal", 4, 2, 1)
    assert oracle.build_ysets(oform, 2)[-1].count == 2
    hform = forms.standard_form("hermitian", 2, 2)
    assert oracle.build_ysets(hform, 1)[None].count == 2


def test_hermitian_tight_case_proportion():
    hform = forms.standard_form("hermitian", 2, 2)
    y = oracle.build_ysets(hform, 1)[None]
    rep = oracle.count_complementary(y, y)
    assert rep.pairs == 2
    assert rep.proportion == Fraction(1, 2)
    assert rep.proportion == 1 - Fraction(2, 2**2)


def test_full_pairs_no_form_filter_regularity():
    # with no form in play, density of complementary pairs is k/|X|
    f = field(2)
    subs = tuple(enumerate_subspaces(4, 2, f))
    hits = sum(
        1 for s1 in subs for s2 in subs if complementary(s1, s2, f)
    )
    assert Fraction(hits, len(subs) ** 2) == Fraction(2 ** (2 * 2), len(subs))


def test_transitive_agrees_with_full_pairs():
    spform = forms.standard_form("symplectic", 4, 2)
    y = oracle.build_ysets(spform, 2)[None]
    full = oracle.count_complementary(y, y)
    fast = oracle.count_complementary_transitive(y, y)
    assert full.proportion == fast.proportion
    assert full.pairs == fast.pairs

    hform = forms.standard_form("hermitian", 2, 2)
    yh = oracle.build_ysets(hform, 1)[None]
    assert (
        oracle.count_complementary(yh, yh).proportion
        == oracle.count_complementary_transitive(yh, yh).proportion
        == Fraction(1, 2)
    )

    ysets = oracle.build_ysets(forms.standard_form("orthogonal", 4, 2, 1), 2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            y1, y2 = ysets[s1], ysets[s2]
            assert (
                oracle.count_complementary(y1, y2).proportion
                == oracle.count_complementary_transitive(y1, y2).proportion
            )


def test_transitive_agrees_on_general_q():
    spform = forms.standard_form("symplectic", 4, 3)
    y = oracle.build_ysets(spform, 2)[None]
    assert (
        oracle.count_complementary(y, y).proportion
        == oracle.count_complementary_transitive(y, y).proportion
    )


def test_transitive_agrees_with_full_pairs_on_o8_plus_gf2():
    # the paper's new F_2 orthogonal case: O+(8, 2), e1 = e2 = 4, both of type +
    y = oracle.build_ysets(forms.standard_form("orthogonal", 8, 2, 1), 4)[1]
    assert y.count == 67_200
    full = oracle.count_complementary(y, y)
    assert full.pairs == oracle.count_complementary_transitive(y, y).pairs == 1_455_820_800


def test_full_pairs_count_matches_transitive_general_q():
    # 650^2 = 422,500 pairs over F_5, counted serially by point incidence
    y = oracle.build_ysets(forms.standard_form("symplectic", 4, 5), 2)[None]
    assert y.count == 650
    full = oracle.count_complementary(y, y)
    assert full.pairs == oracle.count_complementary_transitive(y, y).pairs == 328_250


# (kind, d, q, eps): every split of these has every member of both sides as
# a probe; hermitian q = 2 lives over F_4
SCAN_FORMS = [
    *[("orthogonal", d, q, eps) for q, d in [(2, 4), (2, 6), (3, 4), (4, 4)] for eps in (1, -1)],
    *[("symplectic", d, q, None) for q, d in [(2, 4), (2, 6), (3, 4), (4, 4)]],
    *[("hermitian", d, 2, None) for d in (2, 3, 4)],
]


@pytest.mark.parametrize("kind,d,q,eps", SCAN_FORMS, ids=lambda v: str(v))
def test_scan_matches_reference_from_every_member(kind, d, q, eps):
    # each member's tally of classified complements, in every bucket of the
    # other side, is what the reference's per-pair eliminations count: row
    # and column sums
    form = forms.standard_form(kind, d, q, eps)
    against = pair_test(form.field)
    even = kind != "hermitian"
    signs = (1, -1) if kind == "orthogonal" else (None,)
    for e1 in range(2 if even else 1, d, 2 if even else 1):
        if e1 < d - e1:
            continue
        ysets1, ysets2 = oracle.build_ysets(form, e1), oracle.build_ysets(form, d - e1)
        tallies1 = {s: oracle._tallies(form, d - e1, ysets1[s].members) for s in signs}
        tallies2 = {s: oracle._tallies(form, e1, ysets2[s].members) for s in signs}
        for s1, s2 in product(signs, repeat=2):
            y1, y2 = ysets1[s1], ysets2[s2]
            rows = [[against(a)(b) for b in y2.members] for a in y1.members]
            assert [t[s2] for t in tallies1[s1]] == [sum(r) for r in rows], (e1, s1, s2)
            assert [t[s1] for t in tallies2[s2]] == [sum(c) for c in zip(*rows)], (e1, s1, s2)


def test_scan_matches_reference_on_sampled_members_o8_gf2():
    # O(8, 2) at e1 = e2 = 4, every sign: the first, the last and a seeded
    # member of Y1, each a probe whose tally in Y2's bucket is its pair count
    rng = random.Random(8)
    against = pair_test(field(2))
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", 8, 2, eps)
        ys = oracle.build_ysets(form, 4)
        for s1, s2 in product((1, -1), repeat=2):
            y1, y2 = ys[s1], ys[s2]
            fixed = [y1.members[i] for i in (0, y1.count - 1, rng.randrange(1, y1.count - 1))]
            want = [sum(map(against(s), y2.members)) for s in fixed]
            assert [t[s2] for t in oracle._tallies(form, 4, fixed)] == want, eps


def _outsider_first(y, build_ysets=oracle.build_ysets):
    """y with its first member replaced by the first degenerate subspace of its
    dimension (found by the real build, even where a test patches oracle's)."""
    kept = {s for bucket in build_ysets(y.form, y.e).values() for s in bucket.members}
    outsider = next(s for s in linalg.members(y.form.d, y.e, y.form.field) if s not in kept)
    return y._replace(members=(outsider, *y.members[1:]))


def test_transitive_count_checks_its_orbit():
    # the single-orbit count classifies the complements of the first and the
    # last member of the fixed side; a first member outside the orbit has
    # other complements
    y = oracle.build_ysets(forms.standard_form("symplectic", 4, 2), 2)[None]
    bad = _outsider_first(y)
    against = pair_test(field(2))
    first, last = (sum(map(against(s), y.members)) for s in (bad.members[0], y.members[-1]))
    assert first != last
    with pytest.raises(ArithmeticError, match="single-orbit count"):
        oracle.count_complementary_transitive(bad, y)
    # the fixed side is the one of larger dimension: here Y2
    form = forms.standard_form("orthogonal", 6, 2, 1)
    y1, y2 = oracle.build_ysets(form, 2)[1], oracle.build_ysets(form, 4)[1]
    with pytest.raises(ArithmeticError, match="the first 4-space has"):
        oracle.count_complementary_transitive(y1, _outsider_first(y2))


def test_transitive_count_checks_a_middle_member():
    # an outsider halfway along the fixed side (Y1, the larger one) has other
    # complements than the first member; probing only the ends misses it
    form = forms.standard_form("orthogonal", 4, 3, 1)
    ysets = oracle.build_ysets(form, 2)
    y1, y2 = ysets[1], ysets[-1]
    assert oracle.count_complementary_transitive(y1, y2).pairs == 864
    outsider = _outsider_first(y1).members[0]
    middle = y1.count // 2
    bad = y1._replace(members=(*y1.members[:middle], outsider, *y1.members[middle + 1 :]))
    with pytest.raises(ArithmeticError, match="^single-orbit count: the first 2-space has .* the middle has"):
        oracle.count_complementary_transitive(bad, y2)


def test_transitive_count_fixes_the_larger_side_on_a_tie(monkeypatch):
    # O+(4, 2) at (2, 2) with signs (-, +): |Y1| = 2 and |Y2| = 18, so the
    # count fixes Y2 and lists the complements of its first, middle and last
    # members
    form = forms.standard_form("orthogonal", 4, 2, 1)
    ysets = oracle.build_ysets(form, 2)
    y1, y2 = ysets[-1], ysets[1]
    probes = []
    candidates = linalg.complement_candidates

    def recording(d, s, fld):
        probes.append(s)
        return candidates(d, s, fld)

    monkeypatch.setattr(linalg, "complement_candidates", recording)
    report = oracle.count_complementary_transitive(y1, y2)
    assert probes == [y2.members[i] for i in (0, 9, -1)] and y2.count == 18
    against = pair_test(form.field)
    assert report.pairs == sum(sum(map(against(a), y2.members)) for a in y1.members)


def test_transitive_count_needs_complementary_dimensions():
    # the graphs of a probe have dimension d - e_fixed, so Y-sets whose
    # dimensions do not add up to d are refused rather than miscounted
    form = forms.standard_form("orthogonal", 6, 2, 1)
    y = oracle.build_ysets(form, 2)[1]
    with pytest.raises(ValueError, match="e1 \\+ e2 = d"):
        oracle.count_complementary_transitive(y, y)


def test_count_case_shares_tallies_per_fixed_bucket():
    # one count_case call classifies each fixed bucket once for all its
    # cases; its reports equal those of unshared single-orbit counts, in
    # every sign case of forms whose buckets differ
    for form, e1, e2 in [
        (forms.standard_form("orthogonal", 4, 3, 1), 2, 2),
        (forms.standard_form("orthogonal", 6, 2, -1), 4, 2),
    ]:
        signs = list(product((1, -1), repeat=2))
        shared = oracle.count_case(form, e1, e2, [(s1, s2, None) for s1, s2 in signs])
        ys1, ys2 = oracle.build_ysets(form, e1), oracle.build_ysets(form, e2)
        alone = [oracle.count_complementary_transitive(ys1[s1], ys2[s2]) for s1, s2 in signs]
        assert shared == alone
        assert len({r.proportion for r in alone}) > 1


@pytest.mark.parametrize("block", [1, 7])
def test_transitive_count_in_any_blocks(monkeypatch, block):
    # the graphs reach the classifier in blocks of the first row's
    # candidates, the last block partial where the block does not divide
    # them (a unitary probe of F_4^2 has 16 graphs of one row); the reports
    # do not depend on the block
    cases = [
        (forms.standard_form("orthogonal", 4, 3, 1), 2, 2, list(product((1, -1), repeat=2))),
        (forms.standard_form("symplectic", 4, 2), 2, 2, [(None, None)]),
        (forms.standard_form("hermitian", 3, 2), 1, 2, [(None, None)]),
        (forms.standard_form("hermitian", 3, 2), 2, 1, [(None, None)]),
    ]

    def reports():
        return [
            oracle.count_case(form, e1, e2, [(s1, s2, None) for s1, s2 in signs])
            for form, e1, e2, signs in cases
        ]

    want = reports()
    monkeypatch.setattr(oracle, "_BLOCK", block)
    assert reports() == want


def test_transitive_count_outside_the_orbit_exits_4(capsys, monkeypatch):
    # e1 = e2: one build serves both sides, and its first member is an outsider
    build = oracle.build_ysets

    def outsider_first(*args):
        return {sigma: _outsider_first(y) for sigma, y in build(*args).items()}

    monkeypatch.setattr(oracle, "build_ysets", outsider_first)
    code = cli.main(["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: single-orbit count: ")
    assert err.count("\n") == 1


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
    x1 = list(enumerate_subspaces(e1 + e2, e1, f))
    x2 = list(enumerate_subspaces(e1 + e2, e2, f))
    want = tuple(tuple(int(complementary(s1, s2, f)) for s2 in x2) for s1 in x1)
    assert biadjacency_rows(oracle.build_biadjacency(e1, e2, 2)) == want


def test_biadjacency_cap():
    # [6, 3]_3 = 33,880 rows, above the cap
    assert exactnum.gaussian_binomial(6, 3, 3) > oracle.BIADJACENCY_CAP
    with pytest.raises(exactnum.BudgetError, match="exceeds the cap"):
        oracle.build_biadjacency(3, 3, 3)


def test_biadjacency_cap_holds_on_a_second_build(monkeypatch):
    oracle.build_biadjacency(2, 1, 2)
    monkeypatch.setattr(oracle, "BIADJACENCY_CAP", 3)
    with pytest.raises(exactnum.BudgetError):
        oracle.build_biadjacency(2, 1, 2)


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
    m = mat_mul(rows, list(zip(*rows)))
    assert m == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


@pytest.mark.parametrize("e1,e2,q", [(3, 2, 2), (2, 2, 3)])
def test_gram_popcounts_match_dense_product(e1, e2, q):
    b = oracle.build_biadjacency(e1, e2, q)
    rows = biadjacency_rows(b)
    assert b.gram() == mat_mul(rows, list(zip(*rows)))


@pytest.mark.parametrize("e1,e2,q", [(2, 1, 3), (2, 2, 3), (1, 2, 3)])
def test_biadjacency_rows_from_masks_match_elimination(e1, e2, q):
    f = field(q)
    x1 = list(enumerate_subspaces(e1 + e2, e1, f))
    x2 = list(enumerate_subspaces(e1 + e2, e2, f))
    want = tuple(tuple(int(complementary(s1, s2, f)) for s2 in x2) for s1 in x1)
    b = oracle.build_biadjacency(e1, e2, q)
    assert biadjacency_rows(b) == want
    assert row_sums(b) == [sum(r) for r in want]
    assert col_sums(b) == [sum(c) for c in zip(*want)]


@pytest.mark.parametrize("e1,e2,q", [(2, 2, 3), (3, 2, 2)])
def test_mixing_edges_match_compress_sum(e1, e2, q):
    b = oracle.build_biadjacency(e1, e2, q)
    rows = biadjacency_rows(b)
    for idx1, idx2 in oracle.random_subset_pairs(b, trials=30, seed=5):
        assert oracle.mixing_check(b, idx1, idx2).edges == edges_by_compress(
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
    flipped = b._replace(masks=tuple(masks))
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
    seeded = oracle.random_subset_pairs(b, trials=30, seed=9)
    k, qd = q ** (e1 * e2), q ** (e1 + e2)
    for idx1, idx2 in [*boundary, *seeded]:
        rep = oracle.mixing_check(b, idx1, idx2)
        want = mixing_verdicts_by_fractions(b.n1, b.n2, k, qd, rep.edges, len(idx1), len(idx2))
        assert (rep.holds, rep.tight) == want, (len(idx1), len(idx2))


def test_mixing_integer_verdicts_match_fractions_on_banded_graph():
    # a banded 81-regular matrix of the (2, 2, 3) shape: unlike the real graph,
    # its prefix pairs break the inequality, meet it and hold it with little room
    b = oracle.build_biadjacency(2, 2, 3)
    n, k = b.n1, 3**4
    band, full = (1 << k) - 1, (1 << n) - 1
    banded = b._replace(masks=tuple(((band << i) | (band >> (n - i))) & full for i in range(n)))
    seen = set()
    for s1 in range(0, n + 1, 5):
        for s2 in range(0, n + 1, 5):
            rep = oracle.mixing_check(banded, range(s1), range(s2))
            want = mixing_verdicts_by_fractions(n, n, k, 3**4, rep.edges, s1, s2)
            assert (rep.holds, rep.tight) == want, (s1, s2)
            seen.add(want)
    assert seen == {(False, False), (True, False), (True, True)}


def test_mixing_boundaries():
    b = oracle.build_biadjacency(2, 2, 2)
    full = list(range(b.n1))
    for idx1, idx2 in [(full, full), (full, [3]), ([3], full), ([], full)]:
        rep = oracle.mixing_check(b, idx1, idx2)
        assert rep.holds and rep.tight


def test_mixing_check_rejects_column_out_of_range():
    b = oracle.build_biadjacency(2, 1, 2)
    with pytest.raises(IndexError):
        oracle.mixing_check(b, [0], [7])  # n2 = 7
    with pytest.raises(IndexError):
        oracle.mixing_check(b, [0], [-1])


def test_mixing_check_rejects_row_out_of_range():
    # a negative index must not wrap to the last row, nor one past the end
    # surface as a bare tuple IndexError
    b = oracle.build_biadjacency(2, 1, 2)
    with pytest.raises(IndexError, match=r"e1-space indices must lie in range\(7\)"):
        oracle.mixing_check(b, [-1, 6], [0, 1])  # n1 = 7
    with pytest.raises(IndexError, match=r"e1-space indices must lie in range\(7\)"):
        oracle.mixing_check(b, [7], [0])


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


def test_quotient_charpoly_block_identity_symbolic():
    # mixing_check's two integer comparisons, from the quotient matrix itself
    sympy = pytest.importorskip("sympy")
    t, e, k, n1, n2, s1, s2 = sympy.symbols("t E k n1 n2 s1 s2")
    u1, u2 = n1 - s1, n2 - s2
    a, b = k * s1 - e, k * s2 - e
    f = n1 * k - k * s1 - k * s2 + e
    quotient = sympy.Matrix(
        [
            [0, 0, e / s1, a / s1],
            [0, 0, b / u1, f / u1],
            [e / s2, b / s2, 0, 0],
            [a / u2, f / u2, 0, 0],
        ]
    )
    m, big_n, g = s1 * s2 * u1 * u2, n1 * n2, n1 * (e * n2 - k * s1 * s2)
    big_t = e**2 * u1 * u2 + a**2 * s2 * u1 + b**2 * s1 * u2 + f**2 * s1 * s2
    want = [1, 0, -big_t / m, 0, (e * f - a * b) ** 2 / m]
    coeffs = quotient.charpoly(t).all_coeffs()
    assert [sympy.cancel(x - y) for x, y in zip(coeffs, want)] == [0] * 5
    # c = gamma^2 / delta in the densities a_i = s_i / n_i
    a1, a2 = s1 / n1, s2 / n2
    gamma, delta = e - n1 * k * a1 * a2, n1 * n2 * a1 * a2 * (1 - a1) * (1 - a2)
    assert sympy.cancel(gamma**2 / delta - g**2 / (big_n * m)) == 0
    # tr(PR) = k^2 + c and det P det R = k^2 c, times N m; exact when n1 = n2
    trace_diff = big_t * big_n - k**2 * m * big_n - g**2
    det_diff = (e * f - a * b) ** 2 * big_n - k**2 * g**2
    for diff in (trace_diff, det_diff):
        assert sympy.expand(diff) != 0
        assert sympy.expand(diff.subs(n2, n1)) == 0


@pytest.mark.parametrize("n1,n2,s1,s2", [(2, 8, 1, 2), (3, 2, 2, 1)])
def test_quotient_identity_fails_on_either_coefficient(n1, n2, s1, s2):
    # k = 2 and one edge between the subsets; with n1 != n2 only the t^2
    # coefficient fails in the first case, only the constant one in the second
    fake = oracle.Biadjacency(1, 1, 2, n2, (1,) + (0,) * (n1 - 1))
    report = oracle.mixing_check(fake, range(s1), range(s2))
    assert (report.edges, report.charpoly_ok) == (1, False)


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
        ys6, ys2 = oracle.build_ysets(form, 6), oracle.build_ysets(form, 2)
        for sigma1 in (1, -1):
            for sigma2 in (1, -1):
                y1, y2 = ys6[sigma1], ys2[sigma2]
                forward = oracle.count_complementary_transitive(y1, y2)
                backward = oracle.count_complementary_transitive(y2, y1)
                assert forward.pairs == backward.pairs > 0, (eps, sigma1, sigma2)


def test_exception_report_small():
    form = forms.standard_form("orthogonal", 4, 2, 1)
    threshold = bounds.THEOREM["orthogonal"].threshold(2, 2, 2)
    [rep] = oracle.count_case(form, 2, 2, [(-1, -1, threshold)], full_pairs=True)
    assert rep.y1_count == rep.y2_count == 2
    assert rep.proportion == Fraction(1, 2)
    assert rep.threshold == Fraction(1, 4)
    assert rep.passed
    [fast] = oracle.count_case(form, 2, 2, [(-1, -1, threshold)])
    assert fast.proportion == rep.proportion
