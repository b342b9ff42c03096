"""Graded calculus: wedge, contraction, d, Lie derivative, Schouten bracket."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import Chart, FormField, MultiField, Poly, parse_poly
from cxpoisson import poly as poly_module
from cxpoisson.fields import (
    _field,
    _interior,
    apply_to_forms,
    complex_differential,
    contract,
    contract_form,
    d_complex,
    decompose,
    eval_field,
    lie_derivative,
    normalize_index,
    recompose,
    schouten,
    schouten_sum,
    wedge,
)
from cxpoisson.poly import MAX_EXPONENT, poly_eval, poly_partial
from cxpoisson.scalars import GS_I

from conftest import int_polys, random_multifield, random_poly

CH = Chart(("x", "y", "z"))
CH4 = Chart(("x", "y", "z", "w"))


def random_form(rng, chart, degree):
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dim), degree):
        p = random_poly(rng, chart)
        if not p.is_zero():
            comps[idx] = p
    return FormField(chart, degree, comps)


def test_normalize_index():
    assert normalize_index((0, 1, 2)) == (1, (0, 1, 2))
    assert normalize_index((1, 0)) == (-1, (0, 1))
    assert normalize_index((2, 0, 1)) == (1, (0, 1, 2))
    assert normalize_index((1, 1)) == (0, ())


def test_component_sign_normalization():
    p = Poly.var(CH, "x")
    m = MultiField(CH, 2, {(1, 0): p})
    assert m.component((0, 1)) == -p
    assert m.component((1, 0)) == p
    assert m.component((1, 1)).is_zero()


def test_wedge_graded_commutativity(rng):
    for _ in range(15):
        p = rng.choice((1, 2))
        q = rng.choice((1, 2))
        a = random_multifield(rng, CH4, p)
        b = random_multifield(rng, CH4, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2 == 1:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity(rng):
    for _ in range(10):
        a = random_multifield(rng, CH4, 1)
        b = random_multifield(rng, CH4, 1)
        c = random_multifield(rng, CH4, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_exceeding_dimension_vanishes(rng):
    a = random_multifield(rng, CH, 2)
    b = random_multifield(rng, CH, 2)
    assert wedge(a, b).is_zero()


def test_contract_is_an_antiderivation(rng):
    for _ in range(10):
        z = random_multifield(rng, CH4, 1)
        a = random_form(rng, CH4, 1)
        b = random_form(rng, CH4, 2)
        lhs = contract(z, wedge(a, b))
        rhs = wedge(contract(z, a), b) - wedge(a, contract(z, b))
        # deg a = 1 so the sign on the second term is (-1)^1
        assert lhs == rhs


def test_d_squared_is_zero(rng):
    for _ in range(15):
        deg = rng.choice((0, 1, 2))
        a = random_form(rng, CH4, deg) if deg else FormField.function(
            CH4, random_poly(rng, CH4)
        )
        assert d_complex(d_complex(a)).is_zero()


def test_lie_derivative_on_functions_is_directional(rng):
    for _ in range(10):
        z = random_multifield(rng, CH, 1)
        f = random_poly(rng, CH)
        L = lie_derivative(z, FormField.function(CH, f))
        expected = Poly.zero(CH)
        for j, name in enumerate(CH.vars):
            expected = expected + z.component((j,)) * poly_partial(f, name)
        assert L.component(()) == expected


def test_lie_derivative_commutes_with_d(rng):
    for _ in range(10):
        z = random_multifield(rng, CH, 1)
        a = random_form(rng, CH, 1)
        assert lie_derivative(z, d_complex(a)) == d_complex(lie_derivative(z, a))


def test_lie_derivative_leibniz_over_wedge(rng):
    for _ in range(10):
        z = random_multifield(rng, CH4, 1)
        a = random_form(rng, CH4, 1)
        b = random_form(rng, CH4, 1)
        lhs = lie_derivative(z, wedge(a, b))
        rhs = wedge(lie_derivative(z, a), b) + wedge(a, lie_derivative(z, b))
        assert lhs == rhs


def test_apply_to_forms_antisymmetry(rng):
    for _ in range(10):
        m = random_multifield(rng, CH, 2)
        a = random_form(rng, CH, 1)
        b = random_form(rng, CH, 1)
        assert apply_to_forms(m, [a, b]) == -apply_to_forms(m, [b, a])


def test_schouten_of_vector_fields_is_lie_bracket(rng):
    for _ in range(10):
        X = random_multifield(rng, CH, 1)
        Y = random_multifield(rng, CH, 1)
        br = schouten(X, Y)
        for i in range(CH.dim):
            expected = Poly.zero(CH)
            for j, name in enumerate(CH.vars):
                expected = (
                    expected
                    + X.component((j,)) * poly_partial(Y.component((i,)), name)
                    - Y.component((j,)) * poly_partial(X.component((i,)), name)
                )
            assert br.component((i,)) == expected


def test_schouten_vector_on_function(rng):
    X = MultiField(CH, 1, {(0,): Poly.var(CH, "x")})
    f = MultiField.function(CH, parse_poly("x^2 + i*y", CH))
    assert schouten(X, f).component(()) == parse_poly("2*x^2", CH)
    assert schouten(f, X).component(()) == parse_poly("-2*x^2", CH)


def test_schouten_known_example():
    # [x d/dx, d/dx] = -d/dx
    X = MultiField(CH, 1, {(0,): Poly.var(CH, "x")})
    Y = MultiField(CH, 1, {(0,): Poly.const(CH, 1)})
    br = schouten(X, Y)
    assert br == MultiField(CH, 1, {(0,): Poly.const(CH, -1)})


def test_schouten_graded_antisymmetry(rng):
    for _ in range(10):
        p = rng.choice((1, 2))
        q = rng.choice((1, 2))
        a = random_multifield(rng, CH4, p)
        b = random_multifield(rng, CH4, q)
        lhs = schouten(a, b)
        rhs = schouten(b, a)
        if ((p - 1) * (q - 1)) % 2 == 0:
            assert lhs == -rhs
        else:
            assert lhs == rhs


def test_schouten_graded_jacobi(rng):
    # Leibniz form: [a,[b,c]] = [[a,b],c] + (-1)^{(p-1)(q-1)} [b,[a,c]]
    for _ in range(8):
        p = rng.choice((1, 2))
        q = rng.choice((1, 2))
        r = rng.choice((1, 2))
        a = random_multifield(rng, CH4, p)
        b = random_multifield(rng, CH4, q)
        c = random_multifield(rng, CH4, r)
        lhs = schouten(a, schouten(b, c))
        rhs = schouten(schouten(a, b), c)
        cross = schouten(b, schouten(a, c))
        if ((p - 1) * (q - 1)) % 2 == 1:
            cross = -cross
        assert lhs == rhs + cross


def test_schouten_leibniz_over_wedge(rng):
    # [a, b ^ c] = [a,b] ^ c + (-1)^{(p-1) q} b ^ [a,c]
    for _ in range(8):
        p = rng.choice((1, 2))
        a = random_multifield(rng, CH4, p)
        b = random_multifield(rng, CH4, 1)
        c = random_multifield(rng, CH4, 1)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(schouten(a, b), c)
        second = wedge(b, schouten(a, c))
        if ((p - 1) * 1) % 2 == 1:
            second = -second
        assert lhs == rhs + second


def test_operator_vs_field_oracle(rng):
    # a degree-2 multivector acting on exact one-forms reproduces the
    # biderivation of functions computed coefficientwise
    for _ in range(8):
        m = random_multifield(rng, CH, 2)
        f = random_poly(rng, CH)
        g = random_poly(rng, CH)
        Tf = complex_differential(MultiField.function(CH, f))
        Tg = complex_differential(MultiField.function(CH, g))
        val = apply_to_forms(m, [Tf, Tg])
        expected = Poly.zero(CH)
        for (i, j), pij in m.comps.items():
            ni, nj = CH.vars[i], CH.vars[j]
            expected = expected + pij * (
                poly_partial(f, ni) * poly_partial(g, nj)
                - poly_partial(f, nj) * poly_partial(g, ni)
            )
        assert val == expected


def test_decompose_recompose_roundtrip(rng):
    for _ in range(8):
        m = random_multifield(rng, CH, 2)
        re, im = decompose(m)
        assert recompose(re, im) == m
        for p in list(re.comps.values()) + list(im.comps.values()):
            assert p.is_real()


def test_complex_differential_splits():
    f = MultiField.function(CH, parse_poly("x*y + i*z^2", CH))
    df = complex_differential(f)
    re, im = decompose(df)
    assert re == FormField(CH, 1, {(0,): Poly.var(CH, "y"), (1,): Poly.var(CH, "x")})
    assert im == FormField(CH, 1, {(2,): parse_poly("2*z", CH)})


def test_only_d_and_t_c_mark_a_form_closed(rng):
    # the one-form bracket skips the d of a marked form, so only an
    # operation whose result is closed by construction marks it
    f = parse_poly("x*y + i*z^2", CH)
    df = complex_differential(MultiField.function(CH, f))
    alpha = random_form(rng, CH, 1)
    assert df._closed and d_complex(alpha)._closed and d_complex(df)._closed
    v = random_multifield(rng, CH, 1)
    for out in (FormField(CH, 1, df.comps), FormField.function(CH, f), FormField.zero(CH, 1),
                df + df, df - df, -df, df.scale(2), df.conjugate(), *decompose(df),
                contract(v, d_complex(alpha)), contract(v, df), wedge(df, alpha)):
        assert not hasattr(out, "_closed")


def test_eval_field(rng):
    m = random_multifield(rng, CH, 2)
    pt = {"x": Fraction(1, 2), "y": Fraction(-1), "z": Fraction(3)}
    vals = eval_field(m, pt)
    for idx, v in vals.items():
        assert v == poly_eval(m.comps[idx], pt)
        assert v


def _rebuilt(m):
    """m through the validating constructor, from its own components."""
    return type(m)(m.chart, m.degree, dict(m.comps))


def test_trusted_results_equal_the_validating_constructor(rng):
    # the trusted path must never skip a needed normalization: re-validating
    # an output, which sorts keys and drops zero components, changes nothing
    for _ in range(25):
        chart = rng.choice((CH, CH4))
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = random_multifield(rng, chart, p)
        b = random_multifield(rng, chart, q)
        v = random_multifield(rng, chart, 1)
        alpha = random_form(rng, chart, 1)
        form = random_form(rng, chart, rng.randint(0, 2))
        outputs = [
            wedge(a, b), wedge(v, v), wedge(a, a), wedge(alpha, form),
            schouten(a, b), schouten(a, a), schouten(v, a), schouten(b, v),
            d_complex(form), d_complex(d_complex(form)), d_complex(alpha),
            a + b.scale(0) if p == q else a, -a, a - a,
        ]
        if form.degree:
            outputs.append(_interior(v, form))
        if a.degree:
            outputs.append(_interior(alpha, a))
            outputs.append(_interior(alpha, wedge(a, a)))
        for out in outputs:
            assert _rebuilt(out) == out
            assert all(list(k) == sorted(set(k)) for k in out.comps)
            assert all(not p.is_zero() for p in out.comps.values())


def test_components_must_be_on_the_field_chart():
    xyz = Chart(("x", "y", "z"))
    with pytest.raises(ValueError, match=r"\('x', 'y', 'z'\).*\('x', 'y'\)"):
        MultiField(Chart(("x", "y")), 1, {(0,): Poly.var(xyz, "z")})
    with pytest.raises(ValueError, match="chart"):
        FormField(CH, 0, {(): Poly.const(CH4, 1)})
    # an equal chart built apart is the same chart
    assert MultiField(Chart(("x", "y", "z")), 1, {(2,): Poly.var(CH, "z")}).chart == CH


# -- the one-pass graded products against the loops they replaced -------------
#
# old_wedge, old_interior and old_schouten (with its three helpers) form one
# Poly per product, then negate and sum: the reference that wedge, _interior
# and schouten, one poly_graded_products each, must match term for term.


def old_wedge(a, b):
    out = {}
    if a.degree + b.degree > a.chart.dim:
        return _field(type(a), a.chart, a.degree + b.degree, out)
    for ia, pa in a.comps.items():
        for ib, pb in b.comps.items():
            sign, key = normalize_index(ia + ib)
            if sign == 0:
                continue
            term = pa * pb
            if sign == -1:
                term = -term
            out[key] = out[key] + term if key in out else term
    return _field(type(a), a.chart, a.degree + b.degree, out)


def old_interior(v, field):
    out = {}
    for idx, p in field.comps.items():
        for pos, j in enumerate(idx):
            vj = v.component((j,))
            if vj.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = vj * p
            if pos % 2 == 1:
                term = -term
            out[rest] = out[rest] + term if rest in out else term
    return _field(type(field), field.chart, field.degree - 1, out)


def old_theta_partial(m, l):
    out = {}
    for idx, p in m.comps.items():
        if l not in idx:
            continue
        pos = idx.index(l)
        rest = idx[:pos] + idx[pos + 1:]
        term = p if pos % 2 == 0 else -p
        out[rest] = out[rest] + term if rest in out else term
    return _field(MultiField, m.chart, m.degree - 1, out)


def old_coeff_partial(m, name):
    return _field(MultiField, m.chart, m.degree, {k: poly_partial(p, name) for k, p in m.comps.items()})


def old_add_into(out, t, negate):
    for key, term in t.comps.items():
        if negate:
            term = -term
        out[key] = out[key] + term if key in out else term


def old_schouten(a, b):
    chart = a.chart
    p, q = a.degree, b.degree
    deg = p + q - 1
    if deg < 0:
        return MultiField.zero(chart, 0)
    out = {}
    left_minus = (p + 1) % 2 == 1
    right_minus = (p * (q - 1)) % 2 == 0
    for l, name in enumerate(chart.vars):
        if p >= 1:
            old_add_into(out, old_wedge(old_theta_partial(a, l), old_coeff_partial(b, name)), left_minus)
        if q >= 1:
            old_add_into(out, old_wedge(old_theta_partial(b, l), old_coeff_partial(a, name)), right_minus)
    return _field(MultiField, chart, deg, out)


@st.composite
def graded_fields(draw, chart, degree, cls=MultiField):
    """A field of kind cls and the given degree (0..3, possibly past the
    dimension, which leaves only zero) with a Poly of int_polys in each
    component it fills.  One draw in eight is the zero field and one in
    eight fills every index slot; the others fill one to four slots."""
    slots = list(itertools.combinations(range(chart.dim), degree))
    shape = draw(st.integers(0, 7))
    if shape == 0 or not slots:
        return cls.zero(chart, degree)
    chosen = slots if shape == 1 else draw(st.lists(st.sampled_from(slots), min_size=1, max_size=4, unique=True))
    return cls(chart, degree, {idx: draw(int_polys(chart)) for idx in chosen})


def packed(m):
    """A field as its degree and the packed numerator and denominator of
    every component."""
    return m.degree, {k: (p._num, p._den) for k, p in m.comps.items()}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_callers_match_the_loops_they_replaced(data):
    n = data.draw(st.integers(1, 6), label="n")
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    a = data.draw(graded_fields(chart, data.draw(st.integers(0, 3))), label="a")
    b = data.draw(graded_fields(chart, data.draw(st.integers(0, 3))), label="b")
    # [a, a] takes the self-bracket rule at odd and at even degree
    assert packed(schouten(a, a)) == packed(old_schouten(a, a))
    assert packed(schouten(a, b)) == packed(old_schouten(a, b))
    assert packed(wedge(a, a)) == packed(old_wedge(a, a))
    assert packed(wedge(a, b)) == packed(old_wedge(a, b))
    v = data.draw(graded_fields(chart, 1), label="v")
    alpha = data.draw(graded_fields(chart, 1, FormField), label="alpha")
    form = data.draw(graded_fields(chart, data.draw(st.integers(1, 3)), FormField), label="form")
    assert packed(wedge(alpha, form)) == packed(old_wedge(alpha, form))
    assert packed(contract(v, form)) == packed(old_interior(v, form))
    if a.degree:
        assert packed(_interior(v, a)) == packed(old_interior(v, a))
        assert packed(contract_form(alpha, a)) == packed(old_interior(alpha, a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schouten_sum_is_the_sum_of_single_brackets(data):
    n = data.draw(st.integers(1, 4), label="n")
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    deg = data.draw(st.integers(-1, 3), label="output degree")
    terms = []
    for _ in range(data.draw(st.integers(1, 3), label="pairs")):
        p = data.draw(st.integers(max(0, deg + 1 - 3), min(3, deg + 1)))
        a = data.draw(graded_fields(chart, p), label="a")
        # a self pair takes the [a, a] rule of schouten
        b = a if 2 * p == deg + 1 and data.draw(st.booleans()) else data.draw(graded_fields(chart, deg + 1 - p), label="b")
        terms.append((data.draw(st.sampled_from((1, -1, 2, -3, 0)), label="c"), a, b))
    expected = MultiField.zero(chart, max(deg, 0))
    for c, a, b in terms:
        expected = expected + schouten(a, b).scale(c)
    assert packed(schouten_sum(terms)) == packed(expected)


def test_schouten_sum_refuses_pairs_off_the_first_degree_or_chart():
    x, y = Poly.var(CH, "x"), Poly.var(CH, "y")
    v = MultiField(CH, 1, {(0,): y})
    pi = MultiField(CH, 2, {(0, 1): x})
    # [v, pi] has degree 2, [pi, pi] degree 3
    with pytest.raises(ValueError, match="output degree mismatch: 3 vs 2"):
        schouten_sum([(1, v, pi), (1, pi, pi)])
    elsewhere = MultiField(CH4, 2, {(0, 1): Poly.var(CH4, "w")})
    # the same degrees on another chart
    with pytest.raises(ValueError, match="chart mismatch"):
        schouten_sum([(1, pi, pi), (-1, elsewhere, elsewhere)])
    with pytest.raises(ValueError, match="chart mismatch"):
        schouten_sum([(1, v, pi), (1, v, elsewhere)])
    with pytest.raises(ValueError, match="at least one pair"):
        schouten_sum([])
    # pairs of different input degrees but one output degree
    both = schouten_sum([(1, v, pi), (2, pi, v)])
    assert both == schouten(v, pi) + schouten(pi, v).scale(2)
    # pairs of functions give the zero function
    f = MultiField.function(CH, x)
    assert schouten_sum([(1, f, f), (5, f, MultiField.function(CH, y))]) == MultiField.zero(CH, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partials_table_holds_every_nonzero_partial(data):
    n = data.draw(st.integers(1, 4), label="n")
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    cls, top = data.draw(st.sampled_from(((MultiField, 3), (FormField, 2))), label="kind")
    m = data.draw(graded_fields(chart, data.draw(st.integers(0, top)), cls), label="m")
    # -m is made by the trusted constructor, m by the validating one
    for f in (m, -m):
        d = f.partials
        assert len(d) == n
        for l, name in enumerate(chart.vars):
            taken = {idx: poly_partial(p, name) for idx, p in f.comps.items()}
            assert d[l] == {idx: dp for idx, dp in taken.items() if not dp.is_zero()}
        assert f.partials is d


@pytest.fixture
def count_products(monkeypatch):
    """A list that gets one entry per product loop the kernel runs."""
    formed = []
    loop = poly_module._mul_into
    monkeypatch.setattr(poly_module, "_mul_into", lambda *args: formed.append(1) or loop(*args))
    return formed


def test_wedge_overflow_parity_with_the_product(count_products):
    ch = Chart(("x", "y"))
    a = MultiField(ch, 1, {(0,): Poly(ch, {(MAX_EXPONENT - 1, 0): 1})})
    top = wedge(a, MultiField(ch, 1, {(1,): Poly.var(ch, "x")}))
    assert top.comps == {(0, 1): Poly(ch, {(MAX_EXPONENT, 0): 1})}
    b = MultiField(ch, 1, {(1,): Poly(ch, {(2, 0): 1})})
    count_products.clear()
    with pytest.raises(OverflowError):
        wedge(a, b)
    assert count_products == []


def test_schouten_overflow_parity_with_the_product(count_products):
    # with h = 2^14 the Schouten square of x^h (e0^e1 + e0^e2) forms the
    # products x^h * d_x x^h = h x^(2h - 1) = h x^MAX_EXPONENT, which cancel;
    # one more power passes the limit
    h = (MAX_EXPONENT + 1) // 2
    x = Poly.var(CH, "x")

    def square(h):
        f = Poly(CH, {(h, 0, 0): 1})
        return MultiField(CH, 2, {(0, 1): f, (0, 2): f})

    pi = square(h)
    count_products.clear()
    top = schouten(pi, pi)
    assert count_products
    assert top == old_schouten(pi, pi) == MultiField.zero(CH, 3)
    for a, b in ((square(h + 1),) * 2, (MultiField(CH, 1, {(0,): Poly(CH, {(h + 1, 0, 0): 1})}), pi)):
        count_products.clear()
        with pytest.raises(OverflowError):
            schouten(a, b)
        assert count_products == []
    # [X, X] = 0 for a vector field X is read off graded antisymmetry
    vec = MultiField(CH, 1, {(0,): Poly(CH, {(MAX_EXPONENT, 0, 0): 1}), (1,): x})
    assert schouten(vec, vec) == MultiField.zero(CH, 1)


def test_overflow_in_the_top_field_of_the_key(count_products):
    # the chart's last variable owns the top field of a packed monomial, the
    # one whose carry would leave the chart's fields: a graded product that
    # reaches MAX_EXPONENT there is exact, and one past it is refused before
    # any product is formed
    ch = Chart(("x", "y"))
    y, y2, y3 = (Poly(ch, {(0, k): 1}) for k in (1, 2, 3))
    high = Poly(ch, {(0, MAX_EXPONENT - 1): 1})
    top = Poly(ch, {(0, MAX_EXPONENT): 1})
    a = MultiField(ch, 1, {(1,): high})
    alpha = FormField(ch, 1, {(1,): high})
    assert wedge(a, MultiField(ch, 1, {(0,): y})).comps == {(0, 1): -top}
    assert schouten(a, MultiField(ch, 1, {(0,): y2})).comps == {(0,): top.scale(2)}
    assert contract_form(alpha, MultiField(ch, 1, {(1,): y})).comps == {(): top}
    past = [
        lambda: wedge(a, MultiField(ch, 1, {(0,): y2})),
        lambda: schouten(a, MultiField(ch, 1, {(0,): y3})),
        lambda: contract_form(alpha, MultiField(ch, 1, {(1,): y2})),
    ]
    for op in past:
        count_products.clear()
        with pytest.raises(OverflowError, match=f"^a product has exponent {MAX_EXPONENT + 1}, past the maximum {MAX_EXPONENT}$"):
            op()
        assert count_products == []
