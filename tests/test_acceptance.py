"""Acceptance gate: one test (and one printed verdict line) per criterion.

Every check is exact (tolerance 0). Each test prints a single
"criterion N: PASS" line on success; a failure raises before the line
prints, so the assertion failure itself is the FAIL line.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cxpoisson import (
    Chart,
    ComplexBivector,
    FormField,
    MultiField,
    Poly,
    bivector_from_brackets,
    parse_poly,
)
from cxpoisson import linalg
from cxpoisson.bivector import (
    _part_matrix,
    jacobi_pde_residuals,
    jacobi_residual,
    pair_conditions,
)
from cxpoisson.fields import (
    complex_differential,
    contract,
    d_complex,
    lie_derivative,
    schouten,
    wedge,
)
from cxpoisson.lagrangian import (
    Subspace,
    check,
    complexify_real,
    graph,
    hat,
    is_quasi_real,
    products,
    real_points,
    tilde,
    transform,
)
from cxpoisson.normal_form import (
    BundleChart,
    moser_average,
    splitting_check,
)
from cxpoisson.pointwise import (
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
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

from conftest import (
    XYZ,
    leafwise_bivectors,
    nb_bivector,
    random_constant_bivector,
    random_lagrangian,
    random_multifield,
    random_poly,
    random_skew,
    reference_rank,
    slice_forms,
)

F = Fraction


def verdict(n, ok, label):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line)
    assert ok, line


def test_criterion_1_family_integrability():
    ok = True
    for a, b in ((0, 1), (1, 2), (3, 5)):
        pi = nb_bivector(a, b)
        ok = ok and jacobi_residual(pi).is_zero()
        c1, c2 = pair_conditions(pi)
        ok = ok and c1.is_zero() and c2.is_zero()
        ok = ok and all(r.is_zero() for _, _, r in jacobi_pde_residuals(pi))
    verdict(1, ok, "running family satisfies Jacobi by all three routes")


def test_criterion_2_rank_profile():
    pi = nb_bivector(0, 1)
    profs, summary = profile_sample(pi, grid_points(XYZ, 15))
    ok = len(profs) >= 15
    ok = ok and all(p.dim_E == 2 and p.dim_Delta == 1 for p in profs)
    ok = ok and summary["strongly_regular_sample"]
    verdict(2, ok, "dim_E = 2, dim_Delta = 1 at 15 grid points")


def pi2_at(pi, pt):
    """The Fraction matrix of pi2 at the point: the imaginary part of matrix_at."""
    return [[x.im for x in r] for r in matrix_at(pi.body, pt)]


def test_criterion_3_real_index_triangulation():
    rng = random.Random(3)
    ok = True
    pi = nb_bivector(1, 2)
    for pt in grid_points(XYZ, 5):
        prof = rank_profile(pi, pt)
        nullity = len(pi.chart.vars) - reference_rank(pi2_at(pi, pt))
        graph_real = real_points(graph_at(pi, pt)).dim
        ok = ok and nullity == graph_real == prof.real_index
    for _ in range(100):
        n = rng.choice((2, 3))
        q = random_constant_bivector(rng, n)
        pt = grid_points(q.chart, 1)[0]
        prof = rank_profile(q, pt)
        nullity = n - reference_rank(pi2_at(q, pt))
        graph_real = real_points(graph_at(q, pt)).dim
        ok = ok and nullity == graph_real == prof.real_index
    verdict(3, ok, "nullity(pi2) = real index of the graph, 100 randoms")


def test_criterion_4_gcs_suite():
    rng = random.Random(4)
    hits = 0
    ok = True
    while hits < 100:
        n = rng.choice((2, 3))
        pi = random_constant_bivector(rng, n)
        pt = grid_points(pi.chart, 1)[0]
        if reference_rank(pi2_at(pi, pt)) < n:
            continue
        hits += 1
        J, _ = gcs_matrix(pi, pt)
        n2 = 2 * n
        minus_id = [
            [F(-1) if i == j else F(0) for j in range(n2)] for i in range(n2)
        ]
        ok = ok and linalg.matmul(J, J) == minus_id
        P = [[F(0)] * n2 for _ in range(n2)]
        for t in range(n):
            P[t][n + t] = P[n + t][t] = F(1, 2)
        Jt = [[J[i][j] for i in range(n2)] for j in range(n2)]
        ok = ok and linalg.matmul(Jt, linalg.matmul(P, J)) == P
        ok = ok and plus_i_eigenspace(J) == graph_at(pi, pt)
    verdict(4, ok, "J^2 = -Id, pairing preserved, +i eigenspace = graph")


def test_criterion_5_lagrangian_identity_suite():
    rng = random.Random(5)
    ok = True

    def conj(L):
        return transform("conjugate", None, L)

    def dot(z, L):
        return transform("scalar_dot", z, L)

    for _ in range(200):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        ok = ok and hat(dot(GS_I, conj(L))) == check(L)
        ok = ok and tilde(tilde(L)) == tilde(L)
        ok = ok and is_quasi_real(L) == (tilde(L) == L)
        M = random_lagrangian(rng, n)
        z = GaussScalar.of(F(2), F(-1))
        star = products("tangent", L, M)
        ok = ok and dot(z, star) == products("tangent", dot(z, L), dot(z, M))
        ok = ok and conj(dot(z, L)) == dot(z.conjugate(), conj(L))
        # factor recovery for a common-range real pair
        W1 = random_skew(rng, n, real_only=True)
        W2 = random_skew(rng, n, real_only=True)
        R1 = Subspace(
            2 * n, [[x.re for x in r] for r in graph(W1, "twoform").basis]
        )
        R2 = Subspace(
            2 * n, [[x.re for x in r] for r in graph(W2, "twoform").basis]
        )
        P = products("complex_tangent", R1, R2)
        ok = ok and check(P) == R1 and hat(P) == R2
    verdict(5, ok, "hat/check/tilde and scalar-action laws, 200 randoms")


def test_criterion_6_tilde_reconstruction():
    pi = nb_bivector(1, 2)
    pts = grid_points(XYZ, 10)
    ok = all(theorem_7_18_check(pi, pt) for pt in pts)
    # the forms of check(gr pi) and hat(gr pi) are omega_re and omega_im, on
    # bivectors where the two differ (on NB, dim Delta = 1 and both are 0)
    for rho in leafwise_bivectors():
        for pt in grid_points(rho.chart, 5):
            d = presymplectic_at(rho, pt)
            ok = ok and d.omega_re != d.omega_im and theorem_7_18_check(rho, pt)
            ok = ok and slice_forms(rho, pt, d.delta_basis.basis) == (d.omega_re, d.omega_im)
    verdict(6, ok, "pointwise tilde model at 10 points; check/hat forms are omega_re/omega_im")


def test_criterion_7_calculus_oracles():
    rng = random.Random(7)
    CH4 = Chart(("x", "y", "z", "w"))
    ok = True
    for _ in range(50):
        p, q, r = (rng.choice((1, 2)) for _ in range(3))
        a = random_multifield(rng, CH4, p)
        b = random_multifield(rng, CH4, q)
        c = random_multifield(rng, CH4, r)
        # graded Jacobi in Leibniz form
        cross = schouten(b, schouten(a, c))
        if ((p - 1) * (q - 1)) % 2 == 1:
            cross = -cross
        ok = ok and schouten(a, schouten(b, c)) == schouten(
            schouten(a, b), c
        ) + cross
        # d^2 = 0 and the Cartan formula
        deg = rng.choice((1, 2))
        comps = {
            idx: random_poly(rng, CH4)
            for idx in itertools.combinations(range(4), deg)
        }
        alpha = FormField(CH4, deg, comps)
        ok = ok and d_complex(d_complex(alpha)).is_zero()
        X = random_multifield(rng, CH4, 1)
        ok = ok and lie_derivative(X, alpha) == contract(
            X, d_complex(alpha)
        ) + d_complex(contract(X, alpha))
        # operator-vs-field equivalence on exact one-forms
        m = random_multifield(rng, CH4, 2)
        f = random_poly(rng, CH4)
        g = random_poly(rng, CH4)
        Tf = complex_differential(MultiField.function(CH4, f))
        Tg = complex_differential(MultiField.function(CH4, g))
        from cxpoisson.fields import apply_to_forms
        from cxpoisson.poly import poly_partial

        val = apply_to_forms(m, [Tf, Tg])
        expected = Poly.zero(CH4)
        for (i, j), pij in m.comps.items():
            ni, nj = CH4.vars[i], CH4.vars[j]
            expected = expected + pij * (
                poly_partial(f, ni) * poly_partial(g, nj)
                - poly_partial(f, nj) * poly_partial(g, ni)
            )
        ok = ok and val == expected
    verdict(7, ok, "Schouten Jacobi, d^2 = 0, Cartan, biderivation oracle")


def test_criterion_8_splitting_example():
    bundle = BundleChart(("u", "v"), ("q", "p"))
    ch = bundle.chart
    pi = bivector_from_brackets(
        ch, {(0, 1): Poly.var(ch, "u"), (2, 3): Poly.const(ch, 1)}
    )
    X = MultiField(ch, 1, {(2,): Poly.var(ch, "q"), (3,): Poly.var(ch, "p")})
    xi1 = FormField(ch, 1, {(2,): -Poly.var(ch, "p"), (3,): Poly.var(ch, "q")})
    xi2 = FormField(ch, 1, {})
    rep = splitting_check(pi, bundle, (X, xi1, xi2), grid_points(ch, 10))
    ok = rep.passed and len(rep.point_results) == 10
    ok = ok and rep.B == FormField(ch, 2, {(2, 3): Poly.const(ch, 1)})
    ok = ok and rep.omega.is_zero() and rep.fiber_form_ok
    verdict(8, ok, "R^4 splitting: B = dq^dp reproduces the graph")


def test_criterion_9_negative_controls():
    bad = bivector_from_brackets(
        XYZ,
        {
            (0, 1): parse_poly("1", XYZ),
            (0, 2): parse_poly("i*y", XYZ),
            (1, 2): parse_poly("y + i*z", XYZ),
        },
    )
    res = jacobi_residual(bad)
    ok = not res.is_zero()
    ok = ok and res.component((0, 1, 2)) == parse_poly("2 - 2*y", XYZ)
    pi = nb_bivector(1, 2)
    pts = grid_points(XYZ, 8)
    for part in (pi.pi1, pi.pi2):
        A = _part_matrix(part, XYZ)
        gens = [
            MultiField(XYZ, 1, {(i,): A[i][j] for i in range(3)})
            for j in range(3)
        ]
        rep = involutivity_sample(gens, pts)
        ok = ok and not rep.involutive_on_sample and rep.failures
    verdict(9, ok, "perturbed family fails Jacobi; part images non-involutive")
