"""Complex bivectors: integrability residuals, brackets, constructors."""

import random
from collections import Counter
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
    poly_partial,
)
from cxpoisson import bivector as bivector_module
from cxpoisson import fields
from cxpoisson.bivector import (
    _bracket,
    _nijenhuis_matrix,
    _part_matrix,
    _sharp,
    apply_vector,
    bracket_of_functions,
    construct,
    cotangent_bracket,
    hamiltonian,
    jacobi_pde_residuals,
    jacobi_residual,
    nijenhuis_residuals,
    pair_conditions,
)
from cxpoisson.fields import complex_differential, contract, decompose, lie_derivative, schouten
from cxpoisson.scalars import GS_I, GaussScalar

from conftest import (
    XYZ,
    complex_bivectors,
    int_polys,
    nb_bivector,
    random_constant_bivector,
    random_poly,
)

NB_PARAMS = [(0, 1), (1, 2), (3, 5)]


def one_form(chart, comps):
    return FormField(chart, 1, comps)


def random_one_form(rng, chart):
    return FormField(
        chart, 1, {(i,): random_poly(rng, chart) for i in range(chart.dim)}
    )


# -- integrability residuals -------------------------------------------------


@pytest.mark.parametrize("a,b", NB_PARAMS)
def test_nb_family_is_poisson_all_routes(a, b):
    pi = nb_bivector(a, b)
    assert jacobi_residual(pi).is_zero()
    first, second = pair_conditions(pi)
    assert first.is_zero() and second.is_zero()
    assert all(r.is_zero() for _, _, r in jacobi_pde_residuals(pi))


def test_pde_residuals_match_schouten_with_factor_two(rng):
    for _ in range(6):
        comps = {
            (i, j): random_poly(rng, XYZ)
            for i in range(3)
            for j in range(i + 1, 3)
        }
        pi = bivector_from_brackets(XYZ, comps)
        res = jacobi_residual(pi)
        by_triple = {}
        for (idx, s, r) in jacobi_pde_residuals(pi):
            by_triple.setdefault(idx, {})[s] = r
        for idx, parts in by_triple.items():
            expected = (parts[1] + parts[2].scale(GS_I)).scale(2)
            assert res.component(idx) == expected


def test_the_three_routes_take_each_partial_once(monkeypatch):
    taken = Counter()
    take = fields.poly_partial
    monkeypatch.setattr(fields, "poly_partial", lambda p, name: taken.update([(id(p), name)]) or take(p, name))
    ch = Chart(("x", "y", "z", "w"))
    pi = bivector_from_brackets(ch, {
        (0, 1): parse_poly("(1 + i)*x*y + z", ch), (0, 2): parse_poly("2*w - i*y^2", ch),
        (1, 3): parse_poly("x*z + 3*i*w", ch), (2, 3): parse_poly("y + i*x*z*w", ch),
    })
    jacobi_residual(pi)
    pair_conditions(pi)
    jacobi_pde_residuals(pi)
    comps = [p for f in (pi.body, pi.pi1, pi.pi2) for p in f.comps.values()]
    assert len({id(p) for p in comps}) == len(comps) == 12
    assert set(taken) == {(id(p), name) for p in comps for name in ch.vars}
    assert max(taken.values()) == 1


@settings(max_examples=60, deadline=None)
@given(complex_bivectors())
def test_pair_conditions_are_the_brackets_of_the_real_pair(pi):
    p1, p2 = decompose(pi.body)
    assert pair_conditions(pi) == (schouten(p1, p2), schouten(p1, p1) - schouten(p2, p2))


@settings(max_examples=60, deadline=None)
@given(complex_bivectors())
def test_the_three_routes_agree(pi):
    # cli's check decides on [pi, pi] alone, so this is what ties the other
    # two routes to its verdict: [pi, pi] = ([pi1, pi1] - [pi2, pi2]) +
    # 2i [pi1, pi2], and each triple's PDE residuals re + i im are half its
    # component of [pi, pi]
    res = jacobi_residual(pi)
    pc1, pc2 = pair_conditions(pi)
    pde = jacobi_pde_residuals(pi)
    assert res.is_zero() == (pc1.is_zero() and pc2.is_zero()) == all(r.is_zero() for _, _, r in pde)
    assert res == pc2 + pc1.scale(2 * GS_I)
    by_triple = {}
    for idx, s, r in pde:
        by_triple.setdefault(idx, {})[s] = r
    n = pi.chart.dim
    assert len(by_triple) == n * (n - 1) * (n - 2) // 6
    for idx, parts in by_triple.items():
        assert res.component(idx) == (parts[1] + parts[2].scale(GS_I)).scale(2)


def test_perturbed_bracket_fails_jacobi():
    # {x,y} = 1, {x,z} = i y, {y,z} = y + i z: a witness triple survives
    pi = bivector_from_brackets(
        XYZ,
        {
            (0, 1): parse_poly("1", XYZ),
            (0, 2): parse_poly("i*y", XYZ),
            (1, 2): parse_poly("y + i*z", XYZ),
        },
    )
    res = jacobi_residual(pi)
    assert res.component((0, 1, 2)) == parse_poly("2 - 2*y", XYZ)
    assert any(not r.is_zero() for _, _, r in jacobi_pde_residuals(pi))
    first, second = pair_conditions(pi)
    assert not (first.is_zero() and second.is_zero())


# -- function brackets and Hamiltonian fields --------------------------------


def test_hamiltonian_fields_on_canonical_pair():
    ch = Chart(("q", "p"))
    pi = bivector_from_brackets(ch, {(0, 1): Poly.const(ch, 1)})
    Xp = hamiltonian(pi, MultiField.function(ch, Poly.var(ch, "p")))
    # X_p(q) = {q, p} = 1 and X_p(p) = 0, so X_p = d/dq
    assert Xp == MultiField(ch, 1, {(0,): Poly.const(ch, 1)})
    Xq = hamiltonian(pi, MultiField.function(ch, Poly.var(ch, "q")))
    assert Xq == MultiField(ch, 1, {(1,): Poly.const(ch, -1)})


def test_hamiltonian_applies_as_bracket(rng):
    pi = nb_bivector(1, 2)
    for _ in range(6):
        f = MultiField.function(XYZ, random_poly(rng, XYZ))
        h = MultiField.function(XYZ, random_poly(rng, XYZ))
        assert apply_vector(hamiltonian(pi, h), f) == bracket_of_functions(
            pi, f, h
        )


def test_casimir_of_rank_two_bracket():
    pi = bivector_from_brackets(XYZ, {(0, 1): Poly.const(XYZ, 1)})
    z = MultiField.function(XYZ, Poly.var(XYZ, "z"))
    assert hamiltonian(pi, z).is_zero()
    x = MultiField.function(XYZ, Poly.var(XYZ, "x"))
    assert not hamiltonian(pi, x).is_zero()


def test_bracket_antisymmetry_and_leibniz(rng):
    pi = nb_bivector(1, 2)
    for _ in range(6):
        f = MultiField.function(XYZ, random_poly(rng, XYZ))
        g = MultiField.function(XYZ, random_poly(rng, XYZ))
        h = MultiField.function(XYZ, random_poly(rng, XYZ))
        assert bracket_of_functions(pi, f, g) == -bracket_of_functions(pi, g, f)
        fg = MultiField.function(
            XYZ, f.component(()) * g.component(())
        )
        lhs = bracket_of_functions(pi, fg, h)
        rhs = MultiField.function(
            XYZ,
            f.component(()) * bracket_of_functions(pi, g, h).component(())
            + g.component(()) * bracket_of_functions(pi, f, h).component(()),
        )
        assert lhs == rhs


def test_bracket_jacobi_for_poisson_bivector(rng):
    pi = nb_bivector(3, 5)
    for _ in range(4):
        f = MultiField.function(XYZ, random_poly(rng, XYZ))
        g = MultiField.function(XYZ, random_poly(rng, XYZ))
        h = MultiField.function(XYZ, random_poly(rng, XYZ))
        cyc = (
            bracket_of_functions(pi, bracket_of_functions(pi, f, g), h)
            + bracket_of_functions(pi, bracket_of_functions(pi, g, h), f)
            + bracket_of_functions(pi, bracket_of_functions(pi, h, f), g)
        )
        assert cyc.is_zero()


def test_hamiltonian_splits_into_real_pair_brackets(rng):
    # with pi = pi1 + i pi2, h = h1 + i h2, X_h = X1 + i X2:
    # X1(f) = {f,h1}_1 - {f,h2}_2 and X2(f) = {f,h2}_1 + {f,h1}_2
    pi = nb_bivector(1, 2)
    P1 = ComplexBivector(pi.pi1)
    P2 = ComplexBivector(pi.pi2)
    for _ in range(5):
        h = MultiField.function(XYZ, random_poly(rng, XYZ))
        h1 = MultiField.function(XYZ, h.component(()).real_part())
        h2 = MultiField.function(XYZ, h.component(()).imag_part())
        f = MultiField.function(XYZ, random_poly(rng, XYZ).real_part())
        X1, X2 = decompose(hamiltonian(pi, h))
        assert apply_vector(X1, f) == bracket_of_functions(
            P1, f, h1
        ) - bracket_of_functions(P2, f, h2)
        assert apply_vector(X2, f) == bracket_of_functions(
            P1, f, h2
        ) + bracket_of_functions(P2, f, h1)


# -- one-form bracket ---------------------------------------------------------


def test_cotangent_bracket_on_exact_forms(rng):
    pi = nb_bivector(1, 2)
    for _ in range(5):
        f = MultiField.function(XYZ, random_poly(rng, XYZ))
        g = MultiField.function(XYZ, random_poly(rng, XYZ))
        lhs = cotangent_bracket(
            pi, complex_differential(f), complex_differential(g)
        )
        assert lhs == complex_differential(bracket_of_functions(pi, f, g))


def test_cotangent_bracket_anchor_is_anti_morphism(rng):
    pi = nb_bivector(0, 1)
    for _ in range(5):
        a = random_one_form(rng, XYZ)
        b = random_one_form(rng, XYZ)
        assert pi.sharp(cotangent_bracket(pi, a, b)) == -schouten(
            pi.sharp(a), pi.sharp(b)
        )


def test_cotangent_bracket_jacobi(rng):
    pi = nb_bivector(1, 2)
    for _ in range(3):
        a = random_one_form(rng, XYZ)
        b = random_one_form(rng, XYZ)
        c = random_one_form(rng, XYZ)
        cyc = (
            cotangent_bracket(pi, a, cotangent_bracket(pi, b, c))
            + cotangent_bracket(pi, b, cotangent_bracket(pi, c, a))
            + cotangent_bracket(pi, c, cotangent_bracket(pi, a, b))
        )
        assert cyc.is_zero()


def test_cotangent_bracket_leibniz(rng):
    pi = nb_bivector(1, 2)
    for _ in range(4):
        a = random_one_form(rng, XYZ)
        b = random_one_form(rng, XYZ)
        f = random_poly(rng, XYZ)
        fb = FormField(
            XYZ, 1, {(i,): f * b.component((i,)) for i in range(3)}
        )
        br = cotangent_bracket(pi, a, b)
        scaled = FormField(
            XYZ, 1, {(i,): f * br.component((i,)) for i in range(3)}
        )
        Xaf = apply_vector(
            pi.sharp(a), MultiField.function(XYZ, f)
        ).component(())
        corr = FormField(
            XYZ, 1, {(i,): Xaf * b.component((i,)) for i in range(3)}
        )
        assert cotangent_bracket(pi, a, fb) == scaled - corr


def test_cotangent_bracket_rejects_wrong_degree():
    pi = nb_bivector(0, 1)
    two = FormField(XYZ, 2, {(0, 1): Poly.const(XYZ, 1)})
    a = one_form(XYZ, {(0,): Poly.const(XYZ, 1)})
    with pytest.raises(ValueError):
        cotangent_bracket(pi, two, a)


def test_cotangent_bracket_refuses_a_vector_field():
    ch = Chart(("x", "y"))
    x = Poly.var(ch, "x")
    pi = bivector_from_brackets(ch, {(0, 1): x})
    v = MultiField(ch, 1, {(0,): x})
    a = one_form(ch, {(0,): x})
    with pytest.raises(TypeError, match="cotangent_bracket expects a FormField for a, got MultiField"):
        cotangent_bracket(pi, v, a)
    with pytest.raises(TypeError, match="cotangent_bracket expects a FormField for b, got MultiField"):
        cotangent_bracket(pi, a, v)


def test_sharp_refuses_a_vector_field():
    # {x, y} = x: pi#(x dx) = -x^2 e_y, and x e_x is no one-form
    ch = Chart(("x", "y"))
    x = Poly.var(ch, "x")
    pi = bivector_from_brackets(ch, {(0, 1): x})
    assert pi.sharp(one_form(ch, {(0,): x})) == MultiField(ch, 1, {(1,): -(x * x)})
    with pytest.raises(TypeError, match="sharp expects a FormField for alpha, got MultiField"):
        pi.sharp(MultiField(ch, 1, {(0,): x}))


def bracket_by_definition(chart, M, a, b):
    """L_{M#b} a - L_{M#a} b - T_C(a(M#b)), the definition of _bracket."""
    X, Y = _sharp(chart, M, b), _sharp(chart, M, a)
    aX = MultiField.function(chart, contract(X, a).component(()))
    return lie_derivative(X, a) - lie_derivative(Y, b) - complex_differential(aX)


@st.composite
def bracket_cases(draw, closed=("neither",)):
    """(chart, M, a, b) on n = 2..4 variables: M the skew matrix of a real
    bivector sigma, or the non-skew matrix of N o sigma# for a sparse N; a
    and b one-forms with int_polys coefficients, so rarely closed, or exact
    forms complex_differential(f), marked closed, as closed picks: neither,
    both, only a or only b."""
    n = draw(st.integers(2, 4), label="n")
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    polys = int_polys(chart)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sigma = MultiField(chart, 2, draw(st.dictionaries(st.sampled_from(pairs), polys.map(Poly.real_part),
                                                      min_size=1, max_size=3)))
    M = _part_matrix(sigma, chart)
    if draw(st.booleans(), label="non-skew"):
        zero = Poly.zero(chart)
        entries = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), polys,
                                       min_size=1, max_size=3))
        M = _nijenhuis_matrix(sigma, [[entries.get((i, j), zero) for j in range(n)] for i in range(n)])
    forms = st.dictionaries(st.integers(0, n - 1), polys, min_size=1, max_size=n).map(
        lambda d: FormField(chart, 1, {(j,): p for j, p in d.items()}))
    exact = polys.map(lambda f: complex_differential(MultiField.function(chart, f)))
    case = draw(st.sampled_from(closed), label="closed")
    a = draw(exact if case in ("both", "a") else forms, label="a")
    b = draw(exact if case in ("both", "b") else forms, label="b")
    return chart, M, a, b


def unmarked(form):
    """form rebuilt through the public constructor, which never marks it
    closed, so that _bracket takes the general path."""
    return FormField(form.chart, form.degree, form.comps)


@settings(max_examples=50, deadline=None)
@given(bracket_cases())
def test_bracket_is_its_definition(case):
    chart, M, a, b = case
    out = _bracket(chart, M, a, b)
    assert out == bracket_by_definition(chart, M, a, b)
    assert not hasattr(out, "_closed")


@settings(max_examples=60, deadline=None)
@given(bracket_cases(closed=("both", "a", "b")))
def test_bracket_of_exact_forms_is_its_definition(case):
    # the reference takes unmarked copies, so it never sees the marker
    chart, M, a, b = case
    out = _bracket(chart, M, a, b)
    assert out == bracket_by_definition(chart, M, unmarked(a), unmarked(b))
    assert hasattr(out, "_closed") == (hasattr(a, "_closed") and hasattr(b, "_closed"))


def test_bracket_of_closed_forms_takes_no_d(monkeypatch):
    taken = []
    d = bivector_module.d_complex
    monkeypatch.setattr(bivector_module, "d_complex", lambda a: taken.append(a) or d(a))
    ch = Chart(("x", "y", "z"))
    pi = bivector_from_brackets(ch, {(0, 1): parse_poly("x*z", ch), (1, 2): parse_poly("i*y + z^2", ch)})
    df, dg = (complex_differential(MultiField.function(ch, parse_poly(t, ch))) for t in ("x*y^2", "z + i*x"))
    cotangent_bracket(pi, df, dg)
    assert taken == []
    cotangent_bracket(pi, df, unmarked(dg))
    cotangent_bracket(pi, unmarked(df), dg)
    assert taken == [unmarked(dg), unmarked(df)]


# -- constructors -------------------------------------------------------------


def real_symplectic(n2):
    chart = Chart(tuple(f"x{k}" for k in range(n2)))
    comps = {
        (2 * k, 2 * k + 1): Poly.const(chart, 1) for k in range(n2 // 2)
    }
    return MultiField(chart, 2, comps)


def test_construct_complexify_and_twist():
    sigma = real_symplectic(4)
    pc = construct("complexify", sigma)
    assert pc.pi2.is_zero() and pc.pi1 == sigma
    pt = construct("twist", sigma)
    assert pt.pi1.is_zero() and pt.pi2 == sigma
    assert jacobi_residual(pc).is_zero() and jacobi_residual(pt).is_zero()


def test_construct_diagonal_and_conjugate():
    sigma = real_symplectic(4)
    pd = construct("diagonal", sigma)
    assert pd.pi1 == sigma and pd.pi2 == sigma
    assert jacobi_residual(pd).is_zero()
    back = construct("conjugate", pd)
    assert back.pi1 == sigma and back.pi2 == -sigma


def test_construct_two_param_pair_conditions(rng):
    chart = Chart(("a", "b", "c", "d"))
    one = Poly.const(chart, 1)
    s1 = MultiField(chart, 2, {(0, 1): one, (2, 3): one})
    s2 = MultiField(chart, 2, {(0, 2): one})
    pi = construct("two_param", s1, s2, Fraction(2), Fraction(3, 2))
    assert pi.pi1 == s1.scale(Fraction(2))
    assert pi.pi2 == s2.scale(Fraction(3, 2))
    first, second = pair_conditions(pi)
    assert first.is_zero()
    assert second.is_zero()
    assert jacobi_residual(pi).is_zero()


def test_construct_rejects_complex_input():
    with pytest.raises(ValueError):
        construct("complexify", nb_bivector(1, 2).body)
    with pytest.raises(ValueError):
        construct("unknown", real_symplectic(2))


def test_nijenhuis_constructor_and_residuals():
    chart = Chart(("q1", "p1", "q2", "p2"))
    one = Poly.const(chart, 1)
    sigma = MultiField(chart, 2, {(0, 1): one, (2, 3): one})
    N = [
        [
            Poly.const(chart, 2 if i < 2 else 5) if i == j else Poly.zero(chart)
            for j in range(4)
        ]
        for i in range(4)
    ]
    first, second = nijenhuis_residuals(sigma, N)
    assert all(p.is_zero() for row in first for p in row)
    assert all(s.is_zero() for s in second)
    pi = construct("nijenhuis", sigma, N)
    assert jacobi_residual(pi).is_zero()
    assert pi.pi1 == sigma


def test_nijenhuis_rejects_non_skew_composition():
    chart = Chart(("q", "p"))
    sigma = MultiField(chart, 2, {(0, 1): Poly.const(chart, 1)})
    N = [
        [Poly.const(chart, 1), Poly.zero(chart)],
        [Poly.zero(chart), Poly.const(chart, 2)],
    ]
    with pytest.raises(ValueError):
        construct("nijenhuis", sigma, N)


def test_nijenhuis_residuals_detect_incompatible_tensor():
    chart = Chart(("q", "p"))
    sigma = MultiField(chart, 2, {(0, 1): Poly.const(chart, 1)})
    # off-diagonal variable entries break the compatibility equations
    q = Poly.var(chart, "q")
    p = Poly.var(chart, "p")
    z = Poly.zero(chart)
    N = [[z, q], [p, z]]
    # on XYZ, N A is not symmetric, so the first residual pins the transpose
    x, y, w = (Poly.var(XYZ, v) for v in XYZ.vars)
    one, zero = Poly.const(XYZ, 1), Poly.zero(XYZ)
    sigma3 = MultiField(XYZ, 2, {(0, 1): w, (0, 2): one, (1, 2): x * y})
    N3 = [[x, one, zero], [zero, y * w, w], [one, zero, x + w]]
    for sig, M in ((sigma, N), (sigma3, N3)):
        first, second = nijenhuis_residuals(sig, M)
        assert any(not e.is_zero() for row in first for e in row)
        assert any(not s.is_zero() for s in second)
        # the first residual is A M^T - M A, A the matrix of sig
        A = _part_matrix(sig, sig.chart)
        AMt = bivector_module._matmul(sig.chart, A, [list(r) for r in zip(*M)])
        MA = bivector_module._matmul(sig.chart, M, A)
        assert first == [[a - b for a, b in zip(r, s)] for r, s in zip(AMt, MA)]


def test_constant_bivectors_are_poisson(rng):
    for n in (2, 3, 4):
        pi = random_constant_bivector(rng, n)
        assert jacobi_residual(pi).is_zero()


def test_coeff_matrix_skew_and_sharp_consistency(rng):
    pi = nb_bivector(1, 2)
    A = pi.coeff_matrix()
    for i in range(3):
        for j in range(3):
            assert A[i][j] == -A[j][i]
    for _ in range(4):
        a = random_one_form(rng, XYZ)
        b = random_one_form(rng, XYZ)
        # a(pi#b) = pi(a, b)
        contracted = Poly.zero(XYZ)
        sb = pi.sharp(b)
        for i in range(3):
            contracted = contracted + a.component((i,)) * sb.component((i,))
        assert contracted == pi.pairing(a, b).component(())


# -- the complex Jacobiator against the real-pair loop -----------------------
#
# old_jacobi_pde_residuals is the previous jacobi_pde_residuals: pi split into
# real matrices A1, A2, four real products per term, and every partial taken
# again for every triple and rotation.  The complex Jacobiator must give the
# same list: order, labels and values.


def old_jacobi_pde_residuals(pi):
    chart = pi.chart
    n = chart.dim
    A1 = _part_matrix(pi.pi1, chart)
    A2 = _part_matrix(pi.pi2, chart)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r1 = Poly.zero(chart)
                r2 = Poly.zero(chart)
                for (a, b, c) in ((i, j, k), (k, i, j), (j, k, i)):
                    for l, name in enumerate(chart.vars):
                        d1 = poly_partial(A1[b][c], name)
                        d2 = poly_partial(A2[b][c], name)
                        r1 = r1 + A1[a][l] * d1 - A2[a][l] * d2
                        r2 = r2 + A2[a][l] * d1 + A1[a][l] * d2
                out.append(((i, j, k), 1, r1))
                out.append(((i, j, k), 2, r2))
    return out


QI = st.builds(GaussScalar.of, st.fractions(-3, 3, max_denominator=3),
               st.fractions(-3, 3, max_denominator=3))
POISSON_KINDS = ("log_canonical", "lie_poisson", "constant")


@st.composite
def degree_two_bivectors(draw):
    """(complex bivector with entries of degree <= 2 on n = 3..6 variables,
    whether it is Poisson by construction): log-canonical q_ij x_i x_j,
    complexified so(3) Lie-Poisson on three variables scaled by z, constant;
    random; or one of the Poisson ones with one random entry added."""
    n = draw(st.integers(3, 6))
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    x = [Poly.var(chart, v) for v in chart.vars]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = draw(st.sampled_from(POISSON_KINDS + ("random", "perturbed")))
    if kind == "random":
        rnd = draw(st.randoms(use_true_random=False))
        return bivector_from_brackets(chart, {ij: random_poly(rnd, chart) for ij in pairs}), False
    family = kind if kind != "perturbed" else draw(st.sampled_from(POISSON_KINDS))
    if family == "log_canonical":
        comps = {(i, j): (x[i] * x[j]).scale(draw(QI)) for i, j in pairs}
    elif family == "lie_poisson":
        a, b, c = draw(st.permutations(range(n)))[:3]
        z = draw(QI)
        comps = {(a, b): x[c].scale(z), (b, c): x[a].scale(z), (c, a): x[b].scale(z)}
    else:
        comps = {ij: Poly.const(chart, draw(QI)) for ij in pairs}
    body = MultiField(chart, 2, comps)
    if kind == "perturbed":
        rnd = draw(st.randoms(use_true_random=False))
        body = body + MultiField(chart, 2, {draw(st.sampled_from(pairs)): random_poly(rnd, chart)})
    return ComplexBivector(body), kind != "perturbed"


@settings(max_examples=80, deadline=None)
@given(degree_two_bivectors())
def test_jacobi_pde_residuals_match_the_real_pair_loop(case):
    pi, poisson = case
    new = jacobi_pde_residuals(pi)
    assert new == old_jacobi_pde_residuals(pi)
    if poisson:
        assert all(r.is_zero() for _, _, r in new)


# -- one Poly matrix product against the loops it replaced -------------------
#
# _sharp, _nijenhuis_matrix, the first Nijenhuis residual A N^T - N A and N*
# are each one _matmul.  The old_* functions are the loops they replaced.


def old_sharp(chart, M, alpha):
    n = chart.dim
    a = [alpha.component((j,)) for j in range(n)]
    comps = {}
    for i in range(n):
        acc = Poly.zero(chart)
        for j in range(n):
            if a[j].is_zero() or M[i][j].is_zero():
                continue
            acc = acc + M[i][j] * a[j]
        comps[(i,)] = acc
    return MultiField(chart, 1, comps)


def old_nijenhuis_matrix(A, N, chart):
    n = chart.dim
    return [[sum((N[i][k] * A[k][j] for k in range(n)), Poly.zero(chart)) for j in range(n)]
            for i in range(n)]


def old_nijenhuis_residuals(sigma, N):
    chart = sigma.chart
    n = chart.dim
    A = _part_matrix(sigma, chart)
    first = [[Poly.zero(chart) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Poly.zero(chart)
            for k in range(n):
                acc = acc + A[i][k] * N[j][k] - N[i][k] * A[k][j]
            first[i][j] = acc
    NA = old_nijenhuis_matrix(A, N, chart)

    def nstar(alpha):
        comps = {}
        for j in range(n):
            acc = Poly.zero(chart)
            for i in range(n):
                ai = alpha.component((i,))
                if ai.is_zero():
                    continue
                acc = acc + ai * N[i][j]
            comps[(j,)] = acc
        return FormField(chart, 1, comps)

    second = []
    for i in range(n):
        for j in range(i + 1, n):
            a = FormField(chart, 1, {(i,): Poly.const(chart, 1)})
            b = FormField(chart, 1, {(j,): Poly.const(chart, 1)})
            lhs = _bracket(chart, NA, a, b)
            rhs = (
                _bracket(chart, A, nstar(a), b)
                + _bracket(chart, A, a, nstar(b))
                - nstar(_bracket(chart, A, a, b))
            )
            second.append(lhs - rhs)
    return first, second


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_poly_matrix_products_match_the_loops(n, rnd):
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    zero = Poly.zero(chart)
    sigma = MultiField(chart, 2, {(i, j): random_poly(rnd, chart).real_part()
                                  for i in range(n) for j in range(i + 1, n)})
    N = [[random_poly(rnd, chart, 1) if rnd.random() < 0.5 else zero for _ in range(n)]
         for _ in range(n)]
    A = _part_matrix(sigma, chart)
    assert _nijenhuis_matrix(sigma, N) == old_nijenhuis_matrix(A, N, chart)
    assert nijenhuis_residuals(sigma, N) == old_nijenhuis_residuals(sigma, N)
    alpha = random_one_form(rnd, chart)
    for M in (N, A):
        assert _sharp(chart, M, alpha) == old_sharp(chart, M, alpha)
