"""Normal forms on bundle charts: Moser averaging, local model, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import (
    Chart,
    ComplexBivector,
    FormField,
    MultiField,
    Poly,
    bivector_from_brackets,
    parse_poly,
)
from cxpoisson.normal_form import (
    BundleChart,
    _fiber_form_check,
    Extension,
    LocalModelResult,
    WeightZeroError,
    extension_check,
    induced_base_bivector_at,
    inverse_bivector_matrix,
    local_model_at,
    mixed_check,
    moser_average,
    projection_matrix,
    splitting_check,
)
from cxpoisson.pointwise import _rows_at, grid_points, matrix_at
from cxpoisson.scalars import GS_ONE, GS_ZERO, GaussScalar
from cxpoisson import linalg

from conftest import reference_solve

F = Fraction

BUNDLE = BundleChart(("u", "v"), ("q", "p"))
CH = BUNDLE.chart  # (u, v, q, p)


def splitting_bivector():
    return bivector_from_brackets(
        CH, {(0, 1): Poly.var(CH, "u"), (2, 3): Poly.const(CH, 1)}
    )


def splitting_section():
    X = MultiField(CH, 1, {(2,): Poly.var(CH, "q"), (3,): Poly.var(CH, "p")})
    xi1 = FormField(
        CH, 1, {(2,): -Poly.var(CH, "p"), (3,): Poly.var(CH, "q")}
    )
    xi2 = FormField(CH, 1, {})
    return X, xi1, xi2


def base_points(count=5):
    return grid_points(BUNDLE.base_chart, count)


# -- bundle charts -------------------------------------------------------------


def test_bundle_chart_validation():
    with pytest.raises(ValueError):
        BundleChart(("x", "y"), ("y", "z"))
    # N would be a point, and a point has no chart
    with pytest.raises(ValueError, match="base is empty"):
        BundleChart((), ("q", "p"))
    assert BUNDLE.b == 2 and BUNDLE.f == 2
    assert BUNDLE.chart.vars == ("u", "v", "q", "p")
    assert BUNDLE.base_chart.vars == ("u", "v")


# -- Moser averaging -----------------------------------------------------------


def test_moser_weights():
    # dq^dp has fiber weight 2; q dq^dp has weight 3; q du^dv has weight 1
    beta = FormField(
        CH,
        2,
        {
            (2, 3): Poly.const(CH, 2),
            (0, 1): Poly.var(CH, "q"),
        },
    )
    avg = moser_average(beta, BUNDLE)
    assert avg.component((2, 3)) == Poly.const(CH, 1)
    assert avg.component((0, 1)) == Poly.var(CH, "q")
    mixed = FormField(CH, 2, {(0, 2): Poly.var(CH, "p")})  # du^dq, weight 2
    assert moser_average(mixed, BUNDLE).component((0, 2)) == Poly.var(
        CH, "p"
    ).scale(F(1, 2))


def test_moser_refuses_weight_zero():
    beta = FormField(CH, 2, {(0, 1): Poly.const(CH, 1)})  # du^dv on N
    with pytest.raises(WeightZeroError) as err:
        moser_average(beta, BUNDLE)
    assert err.value.idx == (0, 1) and err.value.exp == (0, 0, 0, 0)


def test_moser_rejects_foreign_chart():
    other = Chart(("a", "b"))
    beta = FormField(other, 2, {(0, 1): Poly.const(other, 1)})
    with pytest.raises(ValueError):
        moser_average(beta, BUNDLE)


# -- inverse bivector of a two-form -------------------------------------------


def test_inverse_bivector_matrix():
    B = [[GS_ZERO, GS_ONE], [-GS_ONE, GS_ZERO]]
    A = inverse_bivector_matrix(B)
    assert A == [[GS_ZERO, GS_ONE], [-GS_ONE, GS_ZERO]]
    # sharp(A) o flat(B) = Id: (A (B x))_i with flat(B)_j = sum_i x_i B_ij
    # reduces to A = -B^{-1}, checked by A B = -Id
    prod = linalg.matmul(A, B)
    assert prod == [[-GS_ONE, GS_ZERO], [GS_ZERO, -GS_ONE]]
    with pytest.raises(ValueError):
        inverse_bivector_matrix([[GS_ZERO, GS_ZERO], [GS_ZERO, GS_ZERO]])


# -- mixed submanifold check ---------------------------------------------------


def test_mixed_check_positive():
    rep = mixed_check(splitting_bivector(), BUNDLE, base_points())
    assert rep.pi2_annihilator_zero
    assert rep.direct_sum_ok and rep.complex_cosymplectic_ok
    assert rep.mixed and not rep.direct_sum_points


def test_mixed_check_reads_the_base_of_bundle_points():
    # a point of the bundle chart stands for the point of N under it
    pi = bivector_from_brackets(CH, {(0, 1): Poly.var(CH, "u")})
    bundle_pts = [dict(p, q=F(7), p=F(-3)) for p in base_points()]
    assert mixed_check(pi, BUNDLE, bundle_pts) == mixed_check(pi, BUNDLE, base_points())


def test_mixed_check_negative_no_fiber_block():
    pi = bivector_from_brackets(CH, {(0, 1): Poly.var(CH, "u")})
    rep = mixed_check(pi, BUNDLE, base_points())
    assert not rep.direct_sum_ok and not rep.mixed
    assert rep.direct_sum_points


def test_mixed_check_negative_pi2_hits_annihilator():
    pi = bivector_from_brackets(
        CH,
        {
            (0, 1): Poly.var(CH, "u"),
            (2, 3): parse_poly("1 + i", CH),
        },
    )
    rep = mixed_check(pi, BUNDLE, base_points())
    assert not rep.pi2_annihilator_zero
    # a purely imaginary fiber block: pi1 misses the fiber directions, pi
    # does not, so the real direct sum fails and the complex one holds
    pi = bivector_from_brackets(CH, {(0, 1): Poly.var(CH, "u"), (2, 3): parse_poly("i", CH)})
    rep = mixed_check(pi, BUNDLE, base_points())
    assert not rep.pi2_annihilator_zero and not rep.direct_sum_ok and rep.complex_cosymplectic_ok


def test_mixed_check_rejects_wrong_chart():
    other = bivector_from_brackets(
        Chart(("a", "b")), {(0, 1): Poly.const(Chart(("a", "b")), 1)}
    )
    with pytest.raises(ValueError):
        mixed_check(other, BUNDLE, base_points())


# -- local model ----------------------------------------------------------------


def test_local_model_on_zero_section():
    base = BUNDLE.base_chart
    pi_N = bivector_from_brackets(base, {(0, 1): Poly.var(base, "u")})
    ext = Extension(FormField(CH, 2, {(2, 3): Poly.const(CH, 1)}))
    pt = {"u": F(2), "v": F(1), "q": F(0), "p": F(0)}
    res = local_model_at(pi_N, ext, BUNDLE, pt)
    assert res.is_graph and res.model_formula_ok
    M = res.bivector_matrix
    assert M[0][1] == GaussScalar.of(2)
    assert M[2][3] == GS_ONE
    assert M[0][2] == GS_ZERO and M[1][3] == GS_ZERO


def test_local_model_degenerate_extension():
    base = BUNDLE.base_chart
    pi_N = bivector_from_brackets(base, {(0, 1): Poly.var(base, "u")})
    # extension with no fiber block: the model is not a bivector graph
    ext = Extension(FormField(CH, 2, {(0, 1): Poly.var(CH, "q")}))
    pt = {"u": F(2), "v": F(1), "q": F(0), "p": F(0)}
    res = local_model_at(pi_N, ext, BUNDLE, pt)
    assert not res.is_graph and res.bivector_matrix is None


def test_projection_matrix_shape():
    P = projection_matrix(BUNDLE)
    assert len(P) == 2 and len(P[0]) == 4
    assert P[0][0] == GS_ONE and P[1][1] == GS_ONE and P[0][2] == GS_ZERO


# -- splitting -------------------------------------------------------------------


def splitting_points(count=5):
    return grid_points(CH, count)


def test_induced_base_bivector():
    pi = splitting_bivector()
    AN = induced_base_bivector_at(pi, BUNDLE, {"u": F(3), "v": F(1, 2)})
    assert AN == [
        [GS_ZERO, GaussScalar.of(3)],
        [GaussScalar.of(-3), GS_ZERO],
    ]


def test_splitting_check_passes():
    pi = splitting_bivector()
    rep = splitting_check(pi, BUNDLE, splitting_section(), splitting_points())
    assert rep.section_in_graph
    assert rep.vanishes_on_N
    assert rep.euler_linear_ok and not rep.euler_higher_order_warning
    assert rep.fiber_form_ok
    assert all(ok for _, ok in rep.point_results)
    assert rep.passed
    # B = dq^dp, omega = 0
    assert rep.B == FormField(CH, 2, {(2, 3): Poly.const(CH, 1)})
    assert rep.omega.is_zero()


def test_splitting_check_wrong_section_fails():
    pi = splitting_bivector()
    X, xi1, xi2 = splitting_section()
    Xbad = MultiField(CH, 1, {(2,): Poly.var(CH, "q")})
    rep = splitting_check(pi, BUNDLE, (Xbad, xi1, xi2), splitting_points())
    assert not rep.section_in_graph and not rep.passed


def test_euler_linear_check_flags():
    pi = splitting_bivector()
    X, xi1, xi2 = splitting_section()
    # scale the section: X' = 2X with xi' = 2 xi stays in the graph but the
    # fiber linearization is 2 Id, not the Euler field
    X2 = X.scale(2)
    xi1b = FormField(CH, 1, {k: v.scale(2) for k, v in xi1.comps.items()})
    rep = splitting_check(pi, BUNDLE, (X2, xi1b, xi2), splitting_points())
    assert rep.section_in_graph and not rep.euler_linear_ok


def test_splitting_check_evaluates_pi_twice_per_point(monkeypatch):
    # once at the point of N, read for both the fiber form and pi_N, and once
    # at the point itself
    from cxpoisson import normal_form

    pi = splitting_bivector()
    calls = []

    def counted(field, point):
        calls.append(field is pi.body)
        return _rows_at(field, point)

    monkeypatch.setattr(normal_form, "_rows_at", counted)
    for k in (1, 3, 5):
        calls.clear()
        rep = splitting_check(pi, BUNDLE, splitting_section(), splitting_points(k))
        assert rep.passed and sum(calls) == 2 * k


def test_extension_check():
    good = Extension(FormField(CH, 2, {(2, 3): Poly.const(CH, 1)}))
    assert extension_check(good, BUNDLE, base_points())
    bad = Extension(FormField(CH, 2, {(0, 2): Poly.const(CH, 1)}))
    assert not extension_check(bad, BUNDLE, base_points())


def test_form_matrix_at_skew():
    form = FormField(CH, 2, {(0, 3): Poly.var(CH, "u")})
    M = matrix_at(form, {"u": F(5), "v": F(0), "q": F(1), "p": F(2)})
    assert M[0][3] == GaussScalar.of(5) and M[3][0] == GaussScalar.of(-5)


# -- the fiber form check against the per-vector formulation -----------------
#
# _fiber_form_check solves for all fiber covectors zeta_a in one block and
# takes Z^T A_ff Z with matmul.  The reference is the per-vector solve and
# four-deep pi(zeta_a, zeta_c) loop it replaced; each solve passes a
# one-column block.


def ref_fiber_pi(pi, bundle, pt):
    """pi(zeta_a, zeta_c) with pi# zeta_a = d/d(fiber_a), or None."""
    b, f = bundle.b, bundle.f
    n = b + f
    A = matrix_at(pi.body, pt)
    sub = [[A[i][b + c] for c in range(f)] for i in range(n)]
    zetas = []
    for a in range(f):
        target = [GS_ONE if i == b + a else GS_ZERO for i in range(n)]
        X = reference_solve(sub, [[t] for t in target], f, GS_ZERO)
        if X is None:
            return None
        zetas.append([c for c, in X])
    out = [[GS_ZERO] * f for _ in range(f)]
    for a in range(f):
        for c in range(f):
            for u in range(f):
                for v in range(f):
                    out[a][c] = out[a][c] + zetas[a][u] * A[b + u][b + v] * zetas[c][v]
    return out


GAUSS = st.builds(GaussScalar.of, st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.sampled_from([1, 2, 4]), st.data())
def test_fiber_form_check_matches_per_vector_formulation(b, f, data):
    bundle = BundleChart(tuple(f"u{k}" for k in range(b)), tuple(f"q{k}" for k in range(f)))
    chart = bundle.chart
    n = b + f
    # the fiber form exists only where pi(base, fiber) = 0 and the fiber
    # block is invertible (so f is even): the fiber block is filled, and the
    # mixed block is left out half the time
    mixed = data.draw(st.booleans())
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i < b <= j and not mixed) or (j < b and data.draw(st.booleans())):
                continue
            brackets[(i, j)] = Poly.const(chart, data.draw(GAUSS))
    pi = bivector_from_brackets(chart, brackets)
    pt = dict({v: F(1) for v in bundle.base_vars}, **{v: F(0) for v in bundle.fiber_vars})
    expected = ref_fiber_pi(pi, bundle, pt)
    block = expected or [[data.draw(GAUSS) for _ in range(f)] for _ in range(f)]
    if data.draw(st.booleans()):  # perturb one fiber entry
        a, c = data.draw(st.sampled_from([(a, c) for a in range(f) for c in range(a + 1, f)] or [(0, 0)]))
        block = [list(r) for r in block]
        block[a][c] = block[a][c] + GS_ONE
    comps = {(b + a, b + c): Poly.const(chart, block[a][c]) for a in range(f) for c in range(a + 1, f)}
    Bw = FormField(chart, 2, {k: p for k, p in comps.items() if not p.is_zero()})
    M = matrix_at(Bw, pt)
    ref_ok = expected is not None and [r[b:] for r in M[b:]] == expected
    assert _fiber_form_check(bundle, _rows_at(pi.body, pt), _rows_at(Bw, pt)) == ref_ok
