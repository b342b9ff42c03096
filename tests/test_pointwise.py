"""Pointwise Dirac linear algebra: profiles, A_pi, presymplectic data, GCS."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxpoisson import Chart, MultiField, Poly, bivector_from_brackets, parse_poly
from cxpoisson.bivector import _part_matrix
from cxpoisson.lagrangian import (
    ComplexSubspace,
    Lagrangian,
    lagrangian_from_range_form,
    real_points,
    tangent_range,
)
from cxpoisson.pointwise import (
    a_pi_at,
    a_pi_min_at,
    bivector_at,
    complex_matrix,
    delta_at,
    gcs_matrix,
    graph_at,
    grid_points,
    hat_sign_check,
    involutivity_sample,
    plus_i_eigenspace,
    presymplectic_at,
    profile_sample,
    rank_profile,
    theorem_7_18_check,
)
from cxpoisson.scalars import GaussScalar
from cxpoisson import linalg

from conftest import XYZ, nb_bivector, random_constant_bivector, random_skew

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


def test_bivector_at_matches_evaluation():
    pi = nb_bivector(1, 2)
    pt = NB_POINTS[0]
    A1, A2 = bivector_at(pi, pt)
    assert A1[0][1] == F(1) and A2[0][1] == F(1)
    assert A1[0][2] == F(0) and A2[0][2] == F(2)
    for i in range(3):
        for j in range(3):
            assert A1[i][j] == -A1[j][i] and A2[i][j] == -A2[j][i]


def test_nb_rank_profiles():
    pi = nb_bivector(1, 2)
    profs, summary = profile_sample(pi, NB_POINTS)
    for p in profs:
        assert p.dim_E == 2
        assert p.dim_Delta == 1
        assert p.dim_D == 3
        assert p.real_index == 1
        assert p.flags["quasi_real_sample"] is False
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
        assert prof.real_index == real_points(L.space).dim
        _, A2 = bivector_at(pi, pt)
        assert prof.real_index == n - linalg.rank(A2)


def test_a_pi_routes_agree():
    pi = nb_bivector(1, 2)
    for pt in NB_POINTS[:5]:
        pre, ann = a_pi_at(pi, pt)
        assert pre == ann
        amin = a_pi_min_at(pi, pt)
        n = pi.chart.dim
        for row in pre.basis:
            z = [GaussScalar.of(row[j], row[n + j]) for j in range(n)]
            assert amin.contains(z)


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


def test_presymplectic_well_defined_across_preimages():
    pi = nb_bivector(3, 5)
    for pt in NB_POINTS[:4]:
        d0 = presymplectic_at(pi, pt, pivot_variant=0)
        d1 = presymplectic_at(pi, pt, pivot_variant=1)
        d2 = presymplectic_at(pi, pt, pivot_variant=2)
        assert d0.omega_re == d1.omega_re == d2.omega_re
        assert d0.omega_im == d1.omega_im == d2.omega_im
        k = d0.delta_basis.dim
        for a in range(k):
            for b in range(k):
                assert d0.omega_re[a][b] == -d0.omega_re[b][a]
                assert d0.omega_im[a][b] == -d0.omega_im[b][a]


def test_hat_sign_on_nb_points():
    pi = nb_bivector(1, 2)
    assert all(hat_sign_check(pi, pt) for pt in NB_POINTS)


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
    while hits < 20:
        n = rng.choice((2, 3))
        pi = random_constant_bivector(rng, n)
        pt = grid_points(pi.chart, 1)[0]
        _, A2 = bivector_at(pi, pt)
        if linalg.rank(A2) < n:
            continue
        hits += 1
        J, sigma = gcs_matrix(pi, pt)
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
        assert plus_i_eigenspace(J) == graph_at(pi, pt).space
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


# -- block solves against the per-vector formulations ------------------------
#
# presymplectic_at and lagrangian_from_range_form solve one block system and
# take X^T A X with matmul.  The references below are the per-vector solve
# and skew_val loops they replaced; each solve passes a one-column block.


def ref_presymplectic(pi, point, pivot_variant=0):
    n = pi.chart.dim
    A1, A2 = bivector_at(pi, point)
    delta = delta_at(pi, point)
    k = delta.dim
    rho = [
        [A1[i][j] for j in range(n)] + [-A2[i][j] for j in range(n)]
        for i in range(n)
    ] + [
        [A2[i][j] for j in range(n)] + [A1[i][j] for j in range(n)]
        for i in range(n)
    ]
    kernel = linalg.nullspace(rho, 2 * n, F(1), F(0))
    pre = []
    for tau in delta.basis:
        target = list(tau) + [F(0)] * n
        X = linalg.solve(rho, [[t] for t in target], 2 * n, F(0))
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


def ref_range_form(E_basis, eps, n):
    rows = []
    V = [list(v) for v in E_basis]
    for a in range(len(E_basis)):
        X = linalg.solve(V, [[e] for e in eps[a]], n, GaussScalar.of(0))
        if X is None:
            raise ValueError("inconsistent range form")
        rows.append(list(E_basis[a]) + [c for c, in X])
    for w in linalg.nullspace(V, n, GaussScalar.of(1), GaussScalar.of(0)):
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
    for variant in (0, 1, 2):
        d = presymplectic_at(pi, pt, pivot_variant=variant)
        assert (d.omega_re, d.omega_im) == ref_presymplectic(pi, pt, variant)
    k = d.delta_basis.dim
    E_basis = [[GaussScalar.of(x) for x in r] for r in d.delta_basis.basis]
    eps = [[GaussScalar.of(d.omega_re[a][b], d.omega_im[a][b]) for b in range(k)] for a in range(k)]
    assert lagrangian_from_range_form(E_basis, eps, n) == ref_range_form(E_basis, eps, n)
    # a random skew range form on the same basis (k <= 4, so at most 6 pairs)
    eps = [[GaussScalar.of(0)] * k for _ in range(k)]
    for (a, b), z in zip([(a, b) for a in range(k) for b in range(a + 1, k)], upper):
        eps[a][b], eps[b][a] = z, -z
    assert lagrangian_from_range_form(E_basis, eps, n) == ref_range_form(E_basis, eps, n)
