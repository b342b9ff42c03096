"""Normal forms on bundle charts: Moser averaging, local model, splitting."""

import sys
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
from cxpoisson.lagrangian import _graph, bivector_of_graph, graph, images, transform
from cxpoisson.normal_form import (
    BundleChart,
    _fiber_form_check,
    _model,
    _on_N,
    _pi_N,
    LocalModelResult,
    WeightZeroError,
    extension_check,
    induced_base_bivector_at,
    local_model_at,
    mixed_check,
    moser_average,
    splitting_check,
)
from cxpoisson.pointwise import _rows_at, delta_at, grid_points, matrix_at
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar
from cxpoisson import lagrangian, linalg

from conftest import reference_rank, reference_solve

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
    # N would be the whole chart, where every splitting condition holds vacuously
    with pytest.raises(ValueError, match="fiber is empty"):
        BundleChart(("u", "v"), ())
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


# -- mixed submanifold check ---------------------------------------------------


def test_mixed_check_positive():
    rep = mixed_check(splitting_bivector(), BUNDLE, base_points())
    assert rep.pi2_annihilator_zero
    assert rep.direct_sum_ok
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
    # a purely imaginary fiber block: pi1 misses the fiber directions, so
    # the real direct sum fails
    pi = bivector_from_brackets(CH, {(0, 1): Poly.var(CH, "u"), (2, 3): parse_poly("i", CH)})
    rep = mixed_check(pi, BUNDLE, base_points())
    assert not rep.pi2_annihilator_zero and not rep.direct_sum_ok


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
    sigma = FormField(CH, 2, {(2, 3): Poly.const(CH, 1)})
    pt = {"u": F(2), "v": F(1), "q": F(0), "p": F(0)}
    res = local_model_at(pi_N, sigma, BUNDLE, pt)
    assert res.is_graph and res.model_formula_ok
    M = res.bivector_matrix
    assert M[0][1] == GaussScalar.of(2)
    assert M[2][3] == GS_ONE
    assert M[0][2] == GS_ZERO and M[1][3] == GS_ZERO


def test_local_model_degenerate_extension():
    base = BUNDLE.base_chart
    pi_N = bivector_from_brackets(base, {(0, 1): Poly.var(base, "u")})
    # extension with no fiber block: the model is not a bivector graph
    sigma = FormField(CH, 2, {(0, 1): Poly.var(CH, "q")})
    pt = {"u": F(2), "v": F(1), "q": F(0), "p": F(0)}
    res = local_model_at(pi_N, sigma, BUNDLE, pt)
    assert not res.is_graph and res.bivector_matrix is None


def test_local_model_at_refuses_charts_other_than_the_bundle_charts():
    # rows are read by position: dq^dp on (q, p, u, v) would read as du^dv
    # on the bundle chart, whose model is no graph
    base = BUNDLE.base_chart
    pi_N = bivector_from_brackets(base, {(0, 1): Poly.var(base, "u")})
    swapped = Chart(("q", "p", "u", "v"))
    sigma = FormField(swapped, 2, {(0, 1): Poly.const(swapped, 1)})
    pt = {"u": F(2), "v": F(1), "q": F(0), "p": F(0)}
    with pytest.raises(ValueError, match="form must live on the bundle chart"):
        local_model_at(pi_N, sigma, BUNDLE, pt)
    vu = Chart(("v", "u"))
    with pytest.raises(ValueError, match="pi_N must live on the base chart"):
        local_model_at(bivector_from_brackets(vu, {(0, 1): Poly.var(vu, "u")}),
                       FormField(CH, 2, {(2, 3): Poly.const(CH, 1)}), BUNDLE, pt)


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


def test_splitting_check_passes_only_along_a_mixed_N():
    # pi = u du^dv + i dq^dp: the section is in the graph of pi and the model
    # matches at every point, but pi2 hits Ann TN, so N is not mixed
    pi = bivector_from_brackets(CH, {(0, 1): Poly.var(CH, "u"), (2, 3): Poly.const(CH, GS_I)})
    X = MultiField(CH, 1, {(2,): Poly.var(CH, "q"), (3,): Poly.var(CH, "p")})
    xi2 = FormField(CH, 1, {(2,): Poly.var(CH, "p"), (3,): -Poly.var(CH, "q")})
    rep = splitting_check(pi, BUNDLE, (X, FormField(CH, 1, {}), xi2), splitting_points())
    assert rep.section_in_graph
    assert not rep.mixed.mixed and not rep.mixed.pi2_annihilator_zero
    assert not rep.passed
    # no point is compared along an N that is not mixed
    assert rep.point_results == () and rep.B is None and rep.fiber_form_ok is None


def test_splitting_check_keeps_its_mixed_report():
    pi = splitting_bivector()
    points = splitting_points()
    rep = splitting_check(pi, BUNDLE, splitting_section(), points)
    assert rep.mixed == mixed_check(pi, BUNDLE, points) and rep.mixed.mixed
    # the rows of pi on N, one entry per point, are kept but neither
    # compared nor printed
    assert [q for q, _ in rep.mixed.rows_on_N] == [_on_N(BUNDLE, p) for p in points]
    assert "rows_on_N" not in repr(rep.mixed)


def test_extension_check():
    good = FormField(CH, 2, {(2, 3): Poly.const(CH, 1)})
    assert extension_check(good, BUNDLE, base_points())
    bad = FormField(CH, 2, {(0, 2): Poly.const(CH, 1)})
    assert not extension_check(bad, BUNDLE, base_points())
    # an extension is a two-form; the refusal names the degree it got
    three = FormField(CH, 3, {(0, 2, 3): Poly.const(CH, 1)})
    with pytest.raises(ValueError, match="expected a degree-2 field at a point, got degree 3"):
        extension_check(three, BUNDLE, base_points())


def test_extension_check_refuses_a_form_off_the_bundle_chart():
    # the nondegenerate fiber form dq^dp, on a chart listing the bundle's
    # variables in another order, would read by position as du^dv and fail
    swapped = Chart(("q", "p", "u", "v"))
    sigma = FormField(swapped, 2, {(0, 1): Poly.const(swapped, 1)})
    with pytest.raises(ValueError, match="form must live on the bundle chart"):
        extension_check(sigma, BUNDLE, base_points())


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


# -- pi_N and the local model against the public composition -----------------
#
# _pi_N and _model build pi_N and e^B p^! gr(pi_N) from integer rows, one
# reduction each.  The reference composes the public GaussScalar operations:
# pi_N is the bivector of the backward image of gr(pi) along the inclusion of
# N, the model the b_field transform of the backward image of graph(pi_N)
# along the projection.


def linear_field(data, kind, chart, pairs, always=()):
    """A degree-2 field with an entry c + c' v (v a chart variable) on each
    pair of always and on each other pair drawn from pairs."""
    comps = {}
    for ij in pairs:
        if ij in always or data.draw(st.booleans()):
            v = data.draw(st.sampled_from(chart.vars))
            p = Poly.const(chart, data.draw(GAUSS)) + Poly.var(chart, v).scale(data.draw(GAUSS))
            if not p.is_zero():
                comps[ij] = p
    return kind(chart, 2, comps)


def scalar_rows(M):
    """The GaussScalar matrix of integer rows (re, im, d)."""
    return [linalg._scalars((r, i, M[2])) for r, i in zip(M[0], M[1])]


def reference_model(bundle, AN, B):
    """e^B p^! gr(pi_N) for GaussScalar matrices AN and B, through the public
    operations: the backward image along the projection p, then b_field."""
    P = [[GS_ONE if i == j else GS_ZERO for j in range(bundle.b + bundle.f)] for i in range(bundle.b)]
    return transform("b_field", B, images("backward", P, graph(AN, "bivector")))


def draw_point(data, bundle, on_N):
    rat = st.fractions(-3, 3, max_denominator=3)
    pt = {v: data.draw(rat) for v in bundle.base_vars}
    pt.update({v: F(0) if on_N else data.draw(rat) for v in bundle.fiber_vars})
    return pt


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_pi_N_and_model_match_the_public_composition(b, f, data):
    bundle = BundleChart(tuple(f"u{k}" for k in range(b)), tuple(f"q{k}" for k in range(f)))
    chart, n = bundle.chart, b + f
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    fiber_pairs = [(i, j) for i, j in pairs if i >= b]
    # a filled fiber block of pi makes pi_N defined for most even f
    filled = data.draw(st.sampled_from([(), fiber_pairs]))
    pi = ComplexBivector(linear_field(data, MultiField, chart, pairs, filled))
    # a degenerate B has no fiber block at all, any other a filled one
    degenerate = data.draw(st.booleans())
    Bw = linear_field(data, FormField, chart, [ij for ij in pairs if not (degenerate and ij in fiber_pairs)],
                      () if degenerate else fiber_pairs)
    pt = draw_point(data, bundle, data.draw(st.booleans()))
    A = _rows_at(pi.body, _on_N(bundle, pt))
    incl = [[GS_ONE if i == j else GS_ZERO for j in range(b)] for i in range(n)]
    ref_AN = bivector_of_graph(images("backward", incl, _graph(*A, "bivector")))
    AN = _pi_N(bundle, A)
    assert (AN is None) == (ref_AN is None)
    if AN is not None:
        assert scalar_rows(AN) == ref_AN
        assert _model(bundle, AN, _rows_at(Bw, pt)) == reference_model(bundle, ref_AN, matrix_at(Bw, pt))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2, 4]), st.data())
def test_local_model_at_matches_the_public_composition_and_its_formula(b, f, data):
    bundle = BundleChart(tuple(f"u{k}" for k in range(b)), tuple(f"q{k}" for k in range(f)))
    chart, base, n = bundle.chart, bundle.base_chart, b + f
    entries = {(i, j): data.draw(GAUSS) for i in range(b) for j in range(i + 1, b)}
    pi_N = bivector_from_brackets(base, {ij: Poly.const(base, z) for ij, z in entries.items() if z})
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    fiber_pairs = [(i, j) for i, j in pairs if i >= b]
    # the formula holds when B is its fiber block on N; a degenerate B has
    # no fiber block
    only_fiber, degenerate = data.draw(st.booleans()), data.draw(st.booleans())
    Bw = linear_field(data, FormField, chart, fiber_pairs if only_fiber else pairs,
                      () if degenerate else fiber_pairs)
    pt = draw_point(data, bundle, data.draw(st.booleans()))
    AN, B = matrix_at(pi_N.body, pt), matrix_at(Bw, pt)
    res = local_model_at(pi_N, Bw, bundle, pt)
    assert res.lagrangian == reference_model(bundle, AN, B)
    assert res.bivector_matrix == bivector_of_graph(res.lagrangian)
    assert res.is_graph == (res.bivector_matrix is not None)
    if not res.is_graph or any(pt[v] for v in bundle.fiber_vars):
        assert res.model_formula_ok is None
        return
    # (sigma_C)^{-1} is the bivector A of the fiber block B_ff with
    # sharp(A) o flat(B_ff) = Id, which forces B_ff A = -Id
    minus_id = [[-GS_ONE if i == j else GS_ZERO for j in range(f)] for i in range(f)]
    inv = reference_solve([r[b:] for r in B[b:]], minus_id, f, GS_ZERO)
    expected = inv and [r + [GS_ZERO] * f for r in AN] + [[GS_ZERO] * b + list(r) for r in inv]
    assert res.model_formula_ok == (res.bivector_matrix == expected)


# -- the fiber block on N when pi2(Ann TN) = 0 ---------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.data())
def test_fiber_block_is_real_on_N_where_pi2_misses_the_annihilator(b, f, data):
    # mixed_check makes no complex echelon of the fiber block: where every
    # entry with a fiber index is real on N, pi's fiber block there is
    # pi1's, so the complex and real ranks agree and direct_sum_ok is the
    # complex cosymplectic condition
    bundle = BundleChart(tuple(f"u{k}" for k in range(b)), tuple(f"q{k}" for k in range(f)))
    chart, n = bundle.chart, b + f
    var, fiber, real = st.sampled_from(chart.vars), st.sampled_from(bundle.fiber_vars), st.integers(-2, 2)
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if j < b:  # a base entry: any complex linear polynomial
                p = Poly.const(chart, data.draw(GAUSS)) + Poly.var(chart, data.draw(var)).scale(data.draw(GAUSS))
            else:  # a real linear part and a complex part that vanishes on N
                p = (Poly.const(chart, data.draw(real)) + Poly.var(chart, data.draw(var)).scale(data.draw(real))
                     + (Poly.var(chart, data.draw(fiber)) * Poly.var(chart, data.draw(var))).scale(data.draw(GAUSS)))
            if not p.is_zero():
                comps[(i, j)] = p
    pi = ComplexBivector(MultiField(chart, 2, comps))
    points = [draw_point(data, bundle, False) for _ in range(3)]
    rep = mixed_check(pi, bundle, points)
    assert rep.pi2_annihilator_zero
    complex_ok = []
    for pt in points:
        on_N = _on_N(bundle, pt)
        Are, _, _ = _rows_at(pi.body, on_N)
        real_rank = len(linalg.echelon([r[b:] for r in Are[b:]])[0])
        complex_rank = reference_rank([r[b:] for r in matrix_at(pi.body, on_N)[b:]])
        assert complex_rank == real_rank
        complex_ok.append(complex_rank == f)
    assert rep.direct_sum_ok == all(complex_ok)


# -- what a point costs -------------------------------------------------------


def test_point_checks_make_no_scalar_round_trip(monkeypatch):
    # the point checks read the integer rows of _rows_at; none of them turns
    # a GaussScalar matrix back into integers.  _int_matrix is wrapped under
    # every module name bound to it
    original = lagrangian._int_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("cxpoisson") and getattr(m, "_int_matrix", None) is original]
    for mod in bound:
        monkeypatch.setattr(mod, "_int_matrix", counted)
    assert lagrangian in bound
    graph([[GS_ZERO, GS_ONE], [-GS_ONE, GS_ZERO]], "bivector")
    assert len(calls) == 1  # the wrapper sees the public API edge
    calls.clear()
    pi = splitting_bivector()
    assert splitting_check(pi, BUNDLE, splitting_section(), splitting_points()).passed
    assert mixed_check(pi, BUNDLE, base_points()).mixed
    assert extension_check(FormField(CH, 2, {(2, 3): Poly.const(CH, 1)}), BUNDLE, base_points())
    assert delta_at(pi, splitting_points(1)[0]).dim == 4  # pi is real and invertible there
    assert calls == []


def test_splitting_check_makes_three_reductions_per_point(monkeypatch):
    # per point, besides the one fiber-block echelon of the mixed_check it
    # runs first: one eliminate for pi_N, one echelon for the model and one
    # for gr(pi) at the point
    from cxpoisson import normal_form

    counts = {"echelon": 0, "eliminate": 0}
    in_mixed = {}

    def counted(name):
        original = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def mixed(*args):
        before = dict(counts)
        rep = mixed_check(*args)
        in_mixed.update({name: counts[name] - before[name] for name in counts})
        return rep

    pi = splitting_bivector()
    for k in (1, 3, 5):
        points = splitting_points(k)
        with monkeypatch.context() as m:
            for name in counts:
                m.setattr(linalg, name, counted(name))
            m.setattr(normal_form, "mixed_check", mixed)
            counts.update(echelon=0, eliminate=0)
            in_mixed.clear()
            assert splitting_check(pi, BUNDLE, splitting_section(), points).passed
        assert in_mixed == {"echelon": k, "eliminate": 0}
        assert counts == {"echelon": 3 * k, "eliminate": k}
