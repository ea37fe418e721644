import random
from itertools import product

import pytest

from oppmix import forms, linalg, oracle
from oppmix.gf import field
from oppmix.linalg import Subspace
from reference import bilinear, bilinear_masks_gf2, classify_orthogonal_gf2, complementary
from reference import coord_subspace
from reference import enumerate_subspaces, nullspace_bits, perp, quad_values_gf2
from reference import radical_nondegenerate, restrict, rref, singular_count, singular_point_counts
from reference import quad_value as reference_quad_value
from reference import subspace_from_rows, symplectic_nondeg_gf2


def test_standard_orthogonal_plus_d2():
    form = forms.standard_form("orthogonal", 2, 2, 1)
    r = restrict(form, coord_subspace(2, range(2)))
    assert singular_count(r) == 2
    assert forms.classify(r) == 1


def test_standard_orthogonal_minus_d2():
    form = forms.standard_form("orthogonal", 2, 2, -1)
    assert form.quad[1][1] == 1  # x^2 + xy + y^2 is anisotropic over F_2
    r = restrict(form, coord_subspace(2, range(2)))
    assert singular_count(r) == 0
    assert forms.classify(r) == -1


def test_standard_symplectic_gram():
    form = forms.standard_form("symplectic", 2, 2)
    assert form.gram == ((0, 1), (1, 0))  # -1 = 1 over F_2
    form3 = forms.standard_form("symplectic", 2, 3)
    assert form3.gram == ((0, 1), (2, 0))


def test_standard_form_validation():
    with pytest.raises(ValueError):
        forms.standard_form("orthogonal", 3, 2, 1)
    with pytest.raises(ValueError):
        forms.standard_form("orthogonal", 4, 2, None)
    with pytest.raises(ValueError):
        forms.standard_form("symplectic", 5, 2)
    with pytest.raises(ValueError):
        forms.standard_form("cubic", 4, 2)


def test_singular_o4_plus():
    form = forms.standard_form("orthogonal", 4, 2, 1)
    assert singular_count(restrict(form, coord_subspace(4, range(4)))) == 9


@pytest.mark.parametrize("q", [2, 3])
def test_singular_counts_match_formulas(q):
    for m in range(1, 5):
        for eps in (1, -1):
            form = forms.standard_form("orthogonal", 2 * m, q, eps)
            r = restrict(form, coord_subspace(2 * m, range(2 * m)))
            plus, minus = singular_point_counts(m, q)
            expected = plus if eps == 1 else minus
            assert singular_count(r) == expected
            assert forms.classify(r) == eps


def test_anisotropic_delta_choices():
    assert forms.anisotropic_delta(field(2)) == 1
    assert forms.anisotropic_delta(field(3)) == 2
    for q in (2, 3, 4, 5):
        c = forms.anisotropic_delta(field(q))
        f = field(q)
        for x in f.elements():
            for y in f.elements():
                if (x, y) == (0, 0):
                    continue
                val = f.add(f.add(f.mul(x, x), f.mul(x, y)), f.mul(c, f.mul(y, y)))
                assert val != 0


def test_restrict_full_space_is_congruent():
    for kind, q in (("orthogonal", 2), ("symplectic", 3), ("hermitian", 2)):
        eps = 1 if kind == "orthogonal" else None
        form = forms.standard_form(kind, 4, q, eps)
        r = restrict(form, coord_subspace(4, range(4)))
        assert r.gram == form.gram
        assert forms.classify(r) is not None


def test_restrict_singular_line_of_hyperbolic_plane():
    form = forms.standard_form("orthogonal", 2, 2, 1)
    line = coord_subspace(2, (0,))
    r = restrict(form, line)
    assert r.gram == ((0,),)
    assert r.qdiag == (0,)
    # classify decides even dimensions only; the radical refinement sees Q(e0) = 0
    with pytest.raises(ValueError, match="even dimension"):
        forms.classify(r)
    assert not radical_nondegenerate(r)


def test_odd_quadratic_restrictions_in_characteristic_2():
    # the polar gram of an odd-dimensional restriction is singular in
    # characteristic 2, so rank cannot decide it and classify refuses; only
    # the radical refinement sees that Q = x^2 on a line and Q = ab + c^2 on
    # a 3-space are non-degenerate
    form = forms.standard_form("orthogonal", 4, 2, 1)  # Q = x0 x1 + x2 x3
    line = Subspace(4, ((1, 1, 0, 0),), (0,))
    r = restrict(form, line)
    assert r.gram == ((0,),) and r.qdiag == (1,)
    with pytest.raises(ValueError, match="even dimension"):
        forms.classify(r)
    assert radical_nondegenerate(r)
    solid = Subspace(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)), (0, 1, 2))
    r = restrict(form, solid)
    assert linalg.rank(r.gram, form.field) == 2
    with pytest.raises(ValueError, match="even dimension"):
        forms.classify(r)
    assert radical_nondegenerate(r)


def test_restrict_totally_isotropic_symplectic():
    form = forms.standard_form("symplectic", 4, 2)
    s = coord_subspace(4, (0, 1))  # split pairing: e0 pairs with e2, e1 with e3
    r = restrict(form, s)
    assert r.gram == ((0, 0), (0, 0))
    assert forms.classify(r) is None


def test_hermitian_points_f4():
    form = forms.standard_form("hermitian", 2, 2)
    assert form.field.q == 4
    points = list(enumerate_subspaces(2, 1, form.field))
    assert len(points) == 5
    nondeg = [p for p in points if forms.classify(restrict(form, p)) is not None]
    assert len(nondeg) == 2


def test_perp_of_full_space_is_zero():
    form = forms.standard_form("symplectic", 4, 3)
    p = perp(form, coord_subspace(4, range(4)))
    assert p.e == 0


def test_perp_symplectic_pair():
    form = forms.standard_form("symplectic", 4, 2)
    s = coord_subspace(4, (0, 2))
    assert bilinear(form, (1, 0, 0, 0), (0, 0, 1, 0)) != 0
    p = perp(form, s)
    assert p == coord_subspace(4, (1, 3))


def test_perp_dimension_and_direct_sum():
    # non-degenerate ambient form: dim(perp) is exactly d - e, and
    # V = S (+) S-perp precisely when the restricted gram has full rank
    form = forms.standard_form("orthogonal", 4, 3, 1)
    f = field(3)
    for s in enumerate_subspaces(4, 2, f):
        p = perp(form, s)
        r = restrict(form, s)
        assert p.e == 2
        full_rank = len(rref(r.gram, f)[1]) == 2
        assert complementary(s, p, f) == full_rank


@pytest.mark.parametrize("q,d", [(2, 4), (3, 4), (2, 6), (3, 6)])
def test_perp_type_is_eps_times_sigma(q, d):
    f = field(q)
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", d, q, eps)
        for e in range(2, d - 1, 2):
            for s in enumerate_subspaces(d, e, f):
                sig = forms.classify(restrict(form, s))
                if sig is None:
                    continue
                assert forms.classify(restrict(form, perp(form, s))) == eps * sig


GF2_FORMS = [("orthogonal", 1), ("orthogonal", -1), ("symplectic", None)]


def test_perp_type_is_eps_times_sigma_d8_gf2():
    # bit-path version of the same invariant at the heavy size: perp maps the
    # type-sigma e-spaces one to one onto the type eps*sigma (8 - e)-spaces
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", 8, 2, eps)
        bil = bilinear_masks_gf2(form)
        ysets = {e: oracle.build_ysets(form, e) for e in (2, 4, 6)}
        for e in (2, 4, 6):
            for sigma in (1, -1):
                members = ysets[e][sigma].members
                perps = {nullspace_bits([bil[r] for r in rows], 8) for rows in members}
                assert perps == set(ysets[8 - e][eps * sigma].members), (eps, e, sigma)


def test_gf2_fast_paths_agree_with_generic():
    for eps in (1, -1):
        form = forms.standard_form("orthogonal", 6, 2, eps)
        qt = quad_values_gf2(form)
        for e in (2, 4):
            for s in enumerate_subspaces(6, e, field(2)):
                generic = forms.classify(restrict(form, s))
                assert classify_orthogonal_gf2(qt, s.bit_rows()) == generic
    form = forms.standard_form("symplectic", 6, 2)
    bil = bilinear_masks_gf2(form)
    for s in enumerate_subspaces(6, 2, field(2)):
        r = restrict(form, s)
        assert symplectic_nondeg_gf2(bil, s.bit_rows()) == (forms.classify(r) is not None)


@pytest.mark.parametrize("kind,eps", GF2_FORMS)
def test_quad_table_gf2(kind, eps):
    # the orthogonal table is Q; the symplectic one's polar form is the gram
    for d in (2, 4, 6):
        form = forms.standard_form(kind, d, 2, eps)
        qt = forms.quad_table_gf2(form)
        if kind == "orthogonal":
            assert qt == bytes(quad_values_gf2(form))
        bil = bilinear_masks_gf2(form)
        for x in range(1 << d):
            for y in range(1 << d):
                assert qt[x ^ y] ^ qt[x] ^ qt[y] == (x & bil[y]).bit_count() & 1


def test_quad_table_gf2_needs_a_bilinear_form_over_f2():
    for kind, q, eps in [("orthogonal", 3, 1), ("hermitian", 2, None)]:
        form = forms.standard_form(kind, 4, q, eps)
        with pytest.raises(ValueError):
            forms.quad_table_gf2(form)


def test_verdicts_by_count_gf2_cover_every_quadratic_form():
    # quadratic forms on (F_2)^e, as upper-triangular coefficient grids (all
    # of them up to e = 4, a seeded sample at e = 5, 6): each one's count of
    # nonzero v with Q(v) = 1 is a key, whose verdict is the reference's
    rng = random.Random(0)
    for e in range(1, 7):
        cells = [(i, j) for i in range(e) for j in range(i, e)]
        grids = product((0, 1), repeat=len(cells)) if e <= 4 else (
            [rng.randrange(2) for _ in cells] for _ in range(300)
        )
        verdicts = forms.verdicts_by_count_gf2(e)
        rows = tuple(1 << i for i in range(e))
        for bits in grids:
            grid = dict(zip(cells, bits))
            qt = [0] * (1 << e)
            for v in range(1, 1 << e):
                qt[v] = sum(grid[i, j] for i, j in cells if (v >> i) & 1 and (v >> j) & 1) % 2
            sigma = verdicts[sum(qt)]
            if e % 2:
                assert sigma == 0
            else:
                assert (sigma or None) == classify_orthogonal_gf2(qt, rows), (e, grid)


def test_congruence_invariance_of_restriction():
    # congruent bases of one subspace: compare rank and singular count
    form = forms.standard_form("orthogonal", 4, 2, 1)
    f = field(2)
    s = Subspace(4, ((1, 0, 1, 0), (0, 1, 0, 1)), (0, 1))
    # re-express the same subspace with a scrambled (non-RREF) basis
    alt_rows = [
        tuple(f.add(a, b) for a, b in zip(s.basis[0], s.basis[1])),
        s.basis[1],
    ]
    alt = subspace_from_rows(alt_rows, f, 4)
    assert alt.basis == s.basis  # canonicalization recovers RREF
    r = restrict(form, s)
    r_direct = forms.RestrictedForm(
        "orthogonal",
        2,
        f,
        tuple(
            tuple(bilinear(form, u, v) for v in alt_rows) for u in alt_rows
        ),
        tuple(form.quad_value(u) for u in alt_rows),
    )
    assert singular_count(r) == singular_count(r_direct)
    assert forms.classify(r) == forms.classify(r_direct)


def test_quad_value_identity():
    # Q(x + y) = Q(x) + Q(y) + B(x, y) in every characteristic
    for q in (2, 3, 4):
        form = forms.standard_form("orthogonal", 4, q, -1)
        f = form.field
        vecs = [(1, 0, 2 % q, 1), (0, 1, 1, 1), (1, 1, 0, 2 % q)]
        for x in vecs:
            for y in vecs:
                s = tuple(f.add(a, b) for a, b in zip(x, y))
                lhs = form.quad_value(s)
                rhs = f.add(
                    f.add(form.quad_value(x), form.quad_value(y)), bilinear(form, x, y)
                )
                assert lhs == rhs
    # Q against the double-sum reference on every vector, and the polar gram
    # against Q: G_ij = Q(e_i + e_j) - Q(e_i) - Q(e_j), G_ii = 2 Q(e_i)
    for q in (2, 3, 4):
        for eps in (1, -1):
            form = forms.standard_form("orthogonal", 4, q, eps)
            f, quad = form.field, form.quad_value
            for v in product(range(q), repeat=4):
                assert quad(v) == reference_quad_value(form, v), (q, eps, v)
            units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
            for i, j in product(range(4), repeat=2):
                qi, qj = quad(units[i]), quad(units[j])
                if i == j:
                    polar = f.add(qi, qi)
                else:
                    polar = f.sub(quad(tuple(map(max, units[i], units[j]))), f.add(qi, qj))
                assert form.gram[i][j] == polar, (q, eps, i, j)
