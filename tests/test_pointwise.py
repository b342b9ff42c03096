"""Pointwise Dirac linear algebra: profiles, A_pi, presymplectic data, GCS."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxpoisson import (
    Chart,
    ComplexBivector,
    FormField,
    MultiField,
    Poly,
    bivector_from_brackets,
    parse_poly,
    poly_eval,
)
from cxpoisson.bivector import _part_matrix
from cxpoisson.lagrangian import (
    Lagrangian,
    Subspace,
    _int_matrix,
    lagrangian_from_range_form,
    real_points,
    real_projection,
    tangent_range,
)
from cxpoisson.pointwise import (
    _rows_at,
    a_pi_at,
    a_pi_min_at,
    delta_at,
    gcs_matrix,
    graph_at,
    grid_points,
    involutivity_sample,
    matrix_at,
    plus_i_eigenspace,
    presymplectic_at,
    profile_sample,
    rank_profile,
    theorem_7_18_check,
)
from cxpoisson.scalars import GaussScalar
from cxpoisson import linalg

from conftest import (
    XYZ,
    identity_matrix,
    leafwise_bivectors,
    nb_bivector,
    random_constant_bivector,
    random_poly,
    random_skew,
    reference_nullspace,
    reference_rank,
    reference_solve,
    slice_forms,
)

F = Fraction
NB_POINTS = grid_points(XYZ, 10)


def test_grid_points_deterministic_and_nonzero():
    a = grid_points(XYZ, 15)
    b = grid_points(XYZ, 15)
    assert a == b and len(a) == 15
    for pt in a:
        assert set(pt) == {"x", "y", "z"}
        assert all(v != 0 for v in pt.values())
    assert len({tuple(sorted(p.items())) for p in a}) == 15


@pytest.mark.parametrize("n", range(1, 7))
def test_grid_points_stop_at_the_twenty_distinct_points(n):
    # every coordinate's value index has a period dividing 20, so a longer
    # grid would only repeat its first 20 points
    pts = grid_points(Chart(tuple(f"x{k}" for k in range(n))), 45)
    assert len(pts) == 20
    assert len({tuple(p.values()) for p in pts}) == 20


def matrix_parts(pi, point):
    """The Fraction matrices (A1, A2) of pi1 and pi2 at the point: the real
    and imaginary parts of matrix_at(pi.body, point)."""
    A = matrix_at(pi.body, point)
    return [[x.re for x in r] for r in A], [[x.im for x in r] for r in A]


def test_nb_rank_profiles():
    pi = nb_bivector(1, 2)
    profs, summary = profile_sample(pi, NB_POINTS)
    for p in profs:
        assert p.dim_E == 2
        assert p.dim_Delta == 1
        assert p.dim_D == 3
        assert p.real_index == 1
        assert p.dim_E != p.dim_D
    assert summary["regular_sample"] and summary["strongly_regular_sample"]
    assert not summary["quasi_real_sample"]


def test_real_index_triangulation(rng):
    # nullity of pi2 = real index of the pointwise graph, on 100 randoms
    for _ in range(100):
        n = rng.choice((2, 3))
        pi = random_constant_bivector(rng, n)
        pt = grid_points(pi.chart, 1)[0]
        prof = rank_profile(pi, pt)
        L = graph_at(pi, pt)
        assert prof.real_index == real_points(L).dim
        _, A2 = matrix_parts(pi, pt)
        assert prof.real_index == n - reference_rank(A2)


def test_a_pi_routes_agree(rng):
    # the preimage route is a slice of the graph, the annihilator route a
    # nullspace of the realified images
    cases = [(nb_bivector(1, 2), pt) for pt in NB_POINTS[:5]]
    for _ in range(30):
        pi = random_constant_bivector(rng, rng.choice((2, 3, 4)))
        cases.append((pi, grid_points(pi.chart, 1)[0]))
    for pi, pt in cases:
        pre, ann = a_pi_at(pi, pt)
        assert pre == ann
        amin = a_pi_min_at(pi, pt)
        n = pi.chart.dim
        zs = [[GaussScalar.of(row[j], row[n + j]) for j in range(n)] for row in pre.basis]
        assert all(amin.contains(z) for z in zs)
        assert amin == Subspace(n, zs, is_complex=True)


def test_a_pi_extreme_cases():
    # zero bivector: every covector maps to zero, A_pi is everything
    zero = bivector_from_brackets(XYZ, {})
    pt = NB_POINTS[0]
    pre, ann = a_pi_at(zero, pt)
    assert pre == ann and pre.dim == 6
    # totally real bivector: constraint is A1 eta = 0 only
    real = bivector_from_brackets(XYZ, {(0, 1): Poly.const(XYZ, 1)})
    pre, ann = a_pi_at(real, pt)
    assert pre == ann and pre.dim == 3 + 1


def nontrivial_leafwise_cases(rng):
    """(pi, point) with dim Delta >= 2 and omega_re, omega_im nonzero and
    different: leafwise_bivectors at grid points, and random constant
    bivectors that pass the filter.  (On nb_bivector dim Delta is 1, so its
    forms are all [[0]].)"""
    cases = [(pi, pt) for pi in leafwise_bivectors() for pt in grid_points(pi.chart, 4)]
    while len(cases) < 20:
        pi = random_constant_bivector(rng, rng.choice((3, 4, 5)))
        cases.append((pi, grid_points(pi.chart, 1)[0]))
    found = []
    for pi, pt in cases:
        d = presymplectic_at(pi, pt)
        if d.delta_basis.dim >= 2 and any(map(any, d.omega_re)) and any(map(any, d.omega_im)) \
                and d.omega_re != d.omega_im:
            found.append((pi, pt, d))
    assert len(found) >= 12
    return found


def test_presymplectic_well_defined_across_preimages(rng):
    for pi, pt, d in nontrivial_leafwise_cases(rng):
        for variant in (0, 1, 2):
            assert (d.omega_re, d.omega_im) == ref_presymplectic(pi, pt, variant)
        assert d.delta_basis == delta_at(pi, pt)
        k = d.delta_basis.dim
        for a in range(k):
            for b in range(k):
                assert d.omega_re[a][b] == -d.omega_re[b][a]
                assert d.omega_im[a][b] == -d.omega_im[b][a]


def test_check_and_hat_forms_are_omega_re_and_omega_im(rng):
    # the real symplectic -1/2 dx0^dx1: omega_re is nonzero and the form of
    # hat(gr pi) is 0, so hat's form is not omega_re
    pi = constant_bivector(2, {(0, 1): GaussScalar.of(F(-1, 2))})
    pt = grid_points(pi.chart, 1)[0]
    d = presymplectic_at(pi, pt)
    assert d.omega_re == [[0, -2], [2, 0]] and d.omega_im == [[0, 0], [0, 0]]
    assert ref_check_hat_pairing(pi, pt)
    for pi, pt, d in nontrivial_leafwise_cases(rng):
        assert slice_forms(pi, pt, d.delta_basis.basis) == (d.omega_re, d.omega_im)


def test_tilde_reconstruction_on_nb_points():
    pi = nb_bivector(1, 2)
    assert all(theorem_7_18_check(pi, pt) for pt in NB_POINTS)


def test_tilde_reconstruction_on_randoms(rng):
    for _ in range(25):
        n = rng.choice((2, 3))
        pi = random_constant_bivector(rng, n)
        pt = grid_points(pi.chart, 1)[0]
        assert theorem_7_18_check(pi, pt)


def pairing_matrix(n):
    P = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for t in range(n):
        P[t][n + t] = F(1, 2)
        P[n + t][t] = F(1, 2)
    return P


def test_gcs_matrix_properties(rng):
    hits = 0
    while hits < 30:
        n = rng.choice((2, 4, 6))
        if rng.random() < 0.5:
            pi = random_constant_bivector(rng, n)
        else:
            chart = Chart(tuple(f"x{k}" for k in range(n)))
            pi = ComplexBivector(MultiField(chart, 2, {
                (i, j): random_poly(rng, chart) for i in range(n) for j in range(i + 1, n)}))
        pt = grid_points(pi.chart, 20)[rng.randrange(20)]
        A1, A2 = matrix_parts(pi, pt)
        if reference_rank(A2) < n:
            continue
        hits += 1
        J, sigma = gcs_matrix(pi, pt)
        # the blocks of J, against products of the parts of A: its
        # (2,1) block inverts A2, and then sigma = A1 A2^-1 A1 + A2
        inv = [r[:n] for r in J[n:]]
        assert linalg.matmul(A2, inv) == identity_matrix(n, 1, 0)
        A1_inv = linalg.matmul(A1, inv)
        assert sigma == [[x + y for x, y in zip(r, s)]
                         for r, s in zip(linalg.matmul(A1_inv, A1), A2)]
        assert [r[:n] for r in J[:n]] == A1_inv
        assert [r[n:] for r in J[:n]] == [[-x for x in r] for r in sigma]
        assert [r[n:] for r in J[n:]] == [[-x for x in r] for r in linalg.matmul(inv, A1)]
        n2 = 2 * n
        J2 = linalg.matmul(J, J)
        assert J2 == [
            [F(-1) if i == j else F(0) for j in range(n2)] for i in range(n2)
        ]
        # J is orthogonal for the canonical pairing: J^T P J = P
        P = pairing_matrix(n)
        Jt = [[J[i][j] for i in range(n2)] for j in range(n2)]
        assert linalg.matmul(Jt, linalg.matmul(P, J)) == P
        # the +i eigenspace is the graph of pi at the point
        assert plus_i_eigenspace(J) == graph_at(pi, pt)
        # sigma = A1 A2^-1 A1 + A2 is skew
        for i in range(n):
            for j in range(n):
                assert sigma[i][j] == -sigma[j][i]


def test_gcs_matrix_refuses_singular_pi2():
    pi = nb_bivector(1, 2)
    with pytest.raises(ValueError) as err:
        gcs_matrix(pi, NB_POINTS[0])
    assert "real index 1" in str(err.value)


def image_generators(pi, part):
    A = _part_matrix(part, pi.chart)
    n = pi.chart.dim
    return [
        MultiField(pi.chart, 1, {(i,): A[i][j] for i in range(n)})
        for j in range(n)
    ]


def test_involutivity_positive_and_negative():
    pi = nb_bivector(1, 2)
    gens = image_generators(pi, pi.pi1) + image_generators(pi, pi.pi2)
    assert involutivity_sample(gens, NB_POINTS).involutive_on_sample
    # the image of pi1 alone is not involutive for this family
    rep = involutivity_sample(image_generators(pi, pi.pi1), NB_POINTS)
    assert not rep.involutive_on_sample and rep.failures
    # explicit textbook failure: [d/dy, y d/dx + d/dz] = d/dx not in the span
    X = MultiField(XYZ, 1, {(1,): Poly.const(XYZ, 1)})
    Y = MultiField(XYZ, 1, {(0,): Poly.var(XYZ, "y"), (2,): Poly.const(XYZ, 1)})
    rep = involutivity_sample([X, Y], NB_POINTS)
    assert not rep.involutive_on_sample
    assert involutivity_sample([], NB_POINTS).involutive_on_sample


def test_delta_at_matches_profile():
    pi = nb_bivector(1, 2)
    for pt in NB_POINTS[:5]:
        assert delta_at(pi, pt).dim == rank_profile(pi, pt).dim_Delta


# -- presymplectic data and range forms against per-vector formulations -------
#
# presymplectic_at reads omega off one slice of gr pi, and
# lagrangian_from_range_form solves one block system.  ref_presymplectic is
# the anchor route: it solves rho(xi + i eta) = tau per basis vector tau of
# Delta, optionally shifted by an element of ker rho (another preimage), and
# evaluates pi1 and pi2 on the preimages; ref_range_form solves per vector.


def ref_presymplectic(pi, point, pivot_variant=0):
    n = pi.chart.dim
    A1, A2 = matrix_parts(pi, point)
    delta = delta_at(pi, point)
    k = delta.dim
    rho = [
        [A1[i][j] for j in range(n)] + [-A2[i][j] for j in range(n)]
        for i in range(n)
    ] + [
        [A2[i][j] for j in range(n)] + [A1[i][j] for j in range(n)]
        for i in range(n)
    ]
    kernel = reference_nullspace(rho, 2 * n, F(1), F(0))
    pre = []
    for tau in delta.basis:
        target = list(tau) + [F(0)] * n
        X = reference_solve(rho, [[t] for t in target], 2 * n, F(0))
        if X is None:
            raise ValueError("Delta basis vector has no preimage in A_pi")
        sol = [c for c, in X]
        if pivot_variant and kernel:
            kv = kernel[pivot_variant % len(kernel)]
            sol = [s + kk for s, kk in zip(sol, kv)]
        pre.append(sol)

    def skew_val(M, u, v):
        return sum((u[i] * M[i][j] * v[j] for i in range(n) for j in range(n)), start=F(0))

    omega_re = [[F(0)] * k for _ in range(k)]
    omega_im = [[F(0)] * k for _ in range(k)]
    for a in range(k):
        xa, ea = pre[a][:n], pre[a][n:]
        for b in range(k):
            xb, eb = pre[b][:n], pre[b][n:]
            omega_re[a][b] = skew_val(A1, xa, xb) + skew_val(A1, ea, eb)
            omega_im[a][b] = -skew_val(A2, xa, xb) - skew_val(A2, ea, eb)
    return omega_re, omega_im


def ref_check_hat_pairing(pi, point):
    """The two-forms of check(gr pi) and hat(gr pi) on Delta are the anchor
    route's omega_re and omega_im."""
    return slice_forms(pi, point, delta_at(pi, point).basis) == ref_presymplectic(pi, point)


def ref_range_form(E_basis, eps, n):
    rows = []
    V = [list(v) for v in E_basis]
    for a in range(len(E_basis)):
        X = reference_solve(V, [[e] for e in eps[a]], n, GaussScalar.of(0))
        if X is None:
            raise ValueError("inconsistent range form")
        rows.append(list(E_basis[a]) + [c for c, in X])
    for w in reference_nullspace(V, n, GaussScalar.of(1), GaussScalar.of(0)):
        rows.append([GaussScalar.of(0)] * n + list(w))
    return Lagrangian.from_generators(n, rows, allow_partial=True)


def constant_bivector(n, brackets):
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    return bivector_from_brackets(chart, {ij: Poly.const(chart, c) for ij, c in brackets.items()})


GAUSS_SMALL = st.builds(GaussScalar.of, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def constant_bivectors(draw):
    """Constant bivectors with n = 2..4 and small, often zero, entries, so
    every rank and every dimension of Delta down to 0 turns up."""
    n = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {ij: draw(GAUSS_SMALL) for ij in pairs if draw(st.booleans())}
    return constant_bivector(n, brackets)


I = GaussScalar.of(0, 1)
ONE = GaussScalar.of(1)
# Delta = 0: the zero bivector, and (e1 + i e2) ^ (e3 + i e4), whose range
# span(e1 + i e2, e3 + i e4) has no real points
DELTA_ZERO = [
    constant_bivector(2, {}),
    constant_bivector(4, {(0, 2): ONE, (0, 3): I, (1, 2): I, (1, 3): -ONE}),
]


def test_delta_zero_examples_have_delta_zero():
    for pi in DELTA_ZERO:
        assert delta_at(pi, grid_points(pi.chart, 1)[0]).dim == 0


@settings(max_examples=60, deadline=None)
@given(constant_bivectors(), st.lists(GAUSS_SMALL, min_size=6, max_size=6))
@example(DELTA_ZERO[0], [ONE] * 6)
@example(DELTA_ZERO[1], [ONE] * 6)
def test_block_solves_match_per_vector_formulations(pi, upper):
    n = pi.chart.dim
    pt = grid_points(pi.chart, 1)[0]
    d = presymplectic_at(pi, pt)
    for variant in (0, 1, 2):
        assert (d.omega_re, d.omega_im) == ref_presymplectic(pi, pt, variant)
    assert ref_check_hat_pairing(pi, pt)
    k = d.delta_basis.dim
    E_basis = [[GaussScalar.of(x) for x in r] for r in d.delta_basis.basis]
    eps = [[GaussScalar.of(d.omega_re[a][b], d.omega_im[a][b]) for b in range(k)] for a in range(k)]
    assert lagrangian_from_range_form(E_basis, eps, n) == ref_range_form(E_basis, eps, n)
    # a random skew range form on the same basis (k <= 4, so at most 6 pairs)
    eps = [[GaussScalar.of(0)] * k for _ in range(k)]
    for (a, b), z in zip([(a, b) for a in range(k) for b in range(a + 1, k)], upper):
        eps[a][b], eps[b][a] = z, -z
    assert lagrangian_from_range_form(E_basis, eps, n) == ref_range_form(E_basis, eps, n)


# -- one point evaluator against the split-and-join pipeline -----------------
#
# old_bivector_at, old_complex_matrix, old_form_matrix_at and old_rank_profile
# are the evaluation this module and normal_form made before matrix_at: pi1
# and pi2 as two Fraction matrices joined into a GaussScalar one, a separate
# evaluator for forms, and Delta built as the real points of E.


def old_bivector_at(pi, point):
    n = pi.chart.dim
    A1 = [[F(0)] * n for _ in range(n)]
    A2 = [[F(0)] * n for _ in range(n)]
    for (i, j), p in pi.body.comps.items():
        v = poly_eval(p, point)
        re, im = v.re, v.im
        A1[i][j], A1[j][i] = re, -re
        A2[i][j], A2[j][i] = im, -im
    return A1, A2


def old_complex_matrix(A1, A2):
    n = len(A1)
    return [[GaussScalar.of(A1[i][j], A2[i][j]) for j in range(n)] for i in range(n)]


def old_form_matrix_at(form, point):
    n = form.chart.dim
    M = [[GaussScalar.of(0)] * n for _ in range(n)]
    for (i, j), p in form.comps.items():
        v = poly_eval(p, point)
        M[i][j] = v
        M[j][i] = -v
    return M


def old_rank_profile(pi, point):
    A1, A2 = old_bivector_at(pi, point)
    A = old_complex_matrix(A1, A2)
    E = Subspace(len(A), A, is_complex=True)
    delta = real_points(E)
    D = real_projection(E)
    return E.dim, delta.dim, D.dim, len(A2) - reference_rank(A2)


RAT = st.fractions(-3, 3, max_denominator=4)


# coordinates with numerators and denominators up to 10^6
WIDE_RAT = st.fractions(-10**6, 10**6, max_denominator=10**6)


@st.composite
def degree_two_fields(draw, rat=RAT):
    """(a degree-2 MultiField or FormField with polynomial entries of degree
    <= 2 on n = 1..5 variables, a point with coordinates drawn from rat)."""
    n = draw(st.integers(1, 5))
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from((MultiField, FormField)))
    comps = {(i, j): random_poly(rnd, chart) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())}
    return kind(chart, 2, comps), {v: draw(rat) for v in chart.vars}


@settings(max_examples=150, deadline=None)
@given(degree_two_fields(st.one_of(RAT, WIDE_RAT)))
@example((MultiField(XYZ, 2, {}), NB_POINTS[0]))
@example((FormField(XYZ, 2, {}), {"x": F(0), "y": F(-7, 10**6), "z": F(10**6, 999_983)}))
def test_matrix_at_matches_the_split_and_join_pipeline(case):
    field, point = case
    M = matrix_at(field, point)
    assert M == old_form_matrix_at(field, point)
    assert all(type(x) is GaussScalar for r in M for x in r)
    # the integer rows are those of the GaussScalar matrix, in lowest terms
    re, im, d = _rows_at(field, point)
    assert (re, im, d) == _int_matrix(M)
    assert d > 0 and gcd(d, *(x for r in re + im for x in r)) == 1
    if isinstance(field, MultiField):
        pi = ComplexBivector(field)
        assert M == old_complex_matrix(*old_bivector_at(pi, point))
        A1, A2 = matrix_parts(pi, point)
        assert (A1, A2) == old_bivector_at(pi, point)
        assert all(type(x) is F for r in A1 + A2 for x in r)


def test_matrix_at_refuses_other_degrees():
    # every point path evaluates through _rows_at, so the message names the
    # degree, not a caller
    with pytest.raises(ValueError, match="expected a degree-2 field at a point, got degree 1"):
        matrix_at(MultiField(XYZ, 1, {(0,): Poly.const(XYZ, 1)}), NB_POINTS[0])
    with pytest.raises(ValueError, match="got degree 3"):
        matrix_at(FormField(XYZ, 3, {(0, 1, 2): Poly.const(XYZ, 1)}), NB_POINTS[0])


@settings(max_examples=100, deadline=None)
@given(st.one_of(constant_bivectors(), degree_two_fields().map(lambda c: ComplexBivector(
    MultiField(c[0].chart, 2, c[0].comps)))), st.data())
@example(DELTA_ZERO[1], None)
def test_rank_profile_matches_the_real_points_formulation(pi, data):
    point = {v: data.draw(RAT) for v in pi.chart.vars} if data else grid_points(pi.chart, 1)[0]
    p = rank_profile(pi, point)
    assert (p.dim_E, p.dim_Delta, p.dim_D, p.real_index) == old_rank_profile(pi, point)
    assert p.dim_Delta == delta_at(pi, point).dim
