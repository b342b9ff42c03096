"""Sparse polynomial ring: axioms, partials, evaluation, printing."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import Chart, Poly, format_poly, parse_poly
from cxpoisson import poly as poly_module
from cxpoisson.poly import (
    MAX_EXPONENT,
    poly_eval,
    poly_partial,
    poly_subst_zero,
    poly_sums_of_products,
)
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

from conftest import int_polys

CH = Chart(("x", "y", "z"))

coeffs = st.builds(
    GaussScalar.of,
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: Poly(CH, d)
)
points = st.fixed_dictionaries(
    {
        "x": st.fractions(min_value=-9, max_value=9, max_denominator=4),
        "y": st.fractions(min_value=-9, max_value=9, max_denominator=4),
        "z": st.fractions(min_value=-9, max_value=9, max_denominator=4),
    }
)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(())
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    assert CH.index("y") == 1
    with pytest.raises(KeyError):
        CH.index("w")


def test_constructors_and_zero_pruning():
    assert Poly.const(CH, 0).is_zero()
    p = Poly(CH, {(1, 0, 0): GaussScalar.of(0)})
    assert p.is_zero() and p == Poly.zero(CH)
    x = Poly.var(CH, "x")
    assert (x - x).is_zero()


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(CH) == a
    assert a * Poly.const(CH, 1) == a


@given(polys, polys)
@settings(max_examples=60)
def test_partial_is_a_derivation(a, b):
    for v in CH.vars:
        lhs = poly_partial(a * b, v)
        rhs = poly_partial(a, v) * b + a * poly_partial(b, v)
        assert lhs == rhs


@given(polys)
@settings(max_examples=60)
def test_partials_commute(p):
    for u in CH.vars:
        for v in CH.vars:
            assert poly_partial(poly_partial(p, u), v) == poly_partial(
                poly_partial(p, v), u
            )


@given(polys, polys, points)
@settings(max_examples=60)
def test_eval_is_a_homomorphism(a, b, pt):
    assert poly_eval(a + b, pt) == poly_eval(a, pt) + poly_eval(b, pt)
    assert poly_eval(a * b, pt) == poly_eval(a, pt) * poly_eval(b, pt)


@given(polys)
@settings(max_examples=60)
def test_real_imag_decomposition(p):
    assert p.real_part() + p.imag_part().scale(GS_I) == p
    assert p.conjugate().conjugate() == p


def test_subst_zero_drops_monomials():
    p = parse_poly("x*y + z + 3", CH)
    assert poly_subst_zero(p, ["y"]) == parse_poly("z + 3", CH)
    assert poly_subst_zero(p, ["y", "z"]) == parse_poly("3", CH)


def test_terms_are_a_read_only_view_that_copies_and_pickles():
    import copy
    import pickle

    ch = Chart(("x", "y"))
    p = parse_poly("x^2 + 1/3*i*y", ch)
    assert p.terms == {(2, 0): GS_ONE, (0, 1): GaussScalar.of(0, Fraction(1, 3))}
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = GS_ONE
    # the unpacked terms, once read, are cached on the Poly and travel with it
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(p)).terms == p.terms


def test_format_is_graded_lex():
    p = parse_poly("y + x^2 + 1 + x*y", CH)
    assert format_poly(p) == "1 + y + x^2 + x*y"


@given(polys)
@settings(max_examples=80)
def test_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p), CH) == p


def test_eval_missing_variable():
    with pytest.raises(KeyError):
        poly_eval(Poly.var(CH, "x"), {"x": 1, "y": 2})


# -- the packed integer Poly against the GaussScalar-dict Poly it replaced ------
#
# RefPoly and the ref_* functions are the previous implementation, kept as the
# reference: a dict from exponent tuples to GaussScalar coefficients.


class RefPoly:
    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = {tuple(e): c for e, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, GS_ZERO) + c
        return RefPoly(self.chart, out)

    def __neg__(self):
        return RefPoly(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, GS_ZERO) + ca * cb
        return RefPoly(self.chart, out)

    def scale(self, c):
        return RefPoly(self.chart, {e: co * c for e, co in self.terms.items()})

    def real_part(self):
        return RefPoly(self.chart, {e: GaussScalar.of(c.re) for e, c in self.terms.items()})

    def imag_part(self):
        return RefPoly(self.chart, {e: GaussScalar.of(c.im) for e, c in self.terms.items()})

    def conjugate(self):
        return RefPoly(self.chart, {e: c.conjugate() for e, c in self.terms.items()})

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))


def ref_partial(p, var):
    j = p.chart.index(var)
    out = {}
    for exp, c in p.terms.items():
        k = exp[j]
        if k:
            e = exp[:j] + (k - 1,) + exp[j + 1:]
            out[e] = out.get(e, GS_ZERO) + c * k
    return RefPoly(p.chart, out)


def ref_eval(p, point):
    vals = [Fraction(point[name]) for name in p.chart.vars]
    total = GS_ZERO
    for exp, c in p.terms.items():
        factor = Fraction(1)
        for k, v in zip(exp, vals):
            factor *= v**k
        total = total + c * factor
    return total


def ref_subst_zero(p, names):
    idxs = [p.chart.index(n) for n in names]
    return RefPoly(p.chart, {e: c for e, c in p.terms.items() if not any(e[j] for j in idxs)})


def ref_format(p):
    if not p.terms:
        return "0"
    chunks = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
        c = p.terms[exp]
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(p.chart.vars, exp) if k
        )
        a, b, _ = c.abd
        cs = f"({c})" if a and b else str(c)
        if not mono:
            chunks.append(cs)
        elif c == GS_ONE:
            chunks.append(mono)
        else:
            chunks.append(f"{cs}*{mono}")
    return " + ".join(chunks)


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
# coefficients over Q and over Q(i); small coefficient and exponent ranges so
# that sums cancel and products collide often
field_coeffs = st.one_of(
    st.builds(GaussScalar.of, rationals),
    st.builds(GaussScalar.of, rationals, rationals),
)
term_dicts = st.one_of(
    st.dictionaries(exponents, st.builds(GaussScalar.of, rationals), max_size=6),
    st.dictionaries(exponents, field_coeffs, max_size=6),
)


def assert_canonical(p):
    """Denominator > 0, content 1, no zero numerator pair."""
    assert p._den > 0
    assert all(a or b for a, b in p._num.values())
    g = p._den
    for a, b in p._num.values():
        g = gcd(g, a, b)
    assert g == 1
    if not p._num:
        assert p._den == 1


def assert_matches(p, ref):
    assert_canonical(p)
    assert dict(p.terms.items()) == ref.terms
    assert p.terms == ref.terms and len(p.terms) == len(ref.terms)
    assert hash(p) == hash(ref)
    assert str(p) == ref_format(ref)


@given(term_dicts, term_dicts, field_coeffs)
@settings(max_examples=150)
def test_packed_poly_matches_the_reference_arithmetic(da, db, s):
    a, b = Poly(CH, da), Poly(CH, db)
    ra, rb = RefPoly(CH, da), RefPoly(CH, db)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a - a, ra - ra)
    assert_matches(-a, -ra)
    assert_matches(a * b, ra * rb)
    assert_matches(a.scale(s), ra.scale(s))
    assert_matches((a * b - a).scale(s) + b, (ra * rb - ra).scale(s) + rb)


@given(term_dicts, term_dicts)
@settings(max_examples=100)
def test_packed_poly_matches_the_reference_calculus_and_parts(da, db):
    a = Poly(CH, da) * Poly(CH, db)
    ra = RefPoly(CH, da) * RefPoly(CH, db)
    for v in CH.vars:
        assert_matches(poly_partial(a, v), ref_partial(ra, v))
    for names in (["x"], ["y", "z"], ["x", "y", "z"], []):
        assert_matches(poly_subst_zero(a, names), ref_subst_zero(ra, names))
    assert_matches(a.real_part(), ra.real_part())
    assert_matches(a.imag_part(), ra.imag_part())
    assert_matches(a.conjugate(), ra.conjugate())
    assert a.is_real() == all(c.is_real() for c in ra.terms.values())


@given(term_dicts, points)
@settings(max_examples=100)
def test_packed_poly_evaluates_like_the_reference(d, pt):
    assert poly_eval(Poly(CH, d), pt) == ref_eval(RefPoly(CH, d), pt)


@pytest.mark.parametrize("exp", [(-1, 0), (1.0, 0), (True, 0), (MAX_EXPONENT + 1, 0)])
def test_constructor_refuses_exponents_it_cannot_pack(exp):
    with pytest.raises(ValueError):
        Poly(Chart(("x", "y")), {exp: 1})


def test_negative_exponent_was_a_wrong_polynomial():
    ch = Chart(("x", "y"))
    with pytest.raises(ValueError):
        Poly(ch, {(-1, 0): 1})
    assert Poly(ch, {(0, 0): 1}) == Poly.const(ch, 1)


def test_product_at_the_field_limit_is_exact_and_past_it_raises():
    ch = Chart(("x", "y"))
    x, y = Poly.var(ch, "x"), Poly.var(ch, "y")
    high = Poly(ch, {(MAX_EXPONENT - 1, 0): 1, (0, MAX_EXPONENT): 2})
    top = high * x
    assert top.terms == {(MAX_EXPONENT, 0): GS_ONE, (1, MAX_EXPONENT): GaussScalar.of(2)}
    # the y field is full, and x's field is untouched by it
    assert poly_partial(top, "x") == Poly(
        ch, {(MAX_EXPONENT - 1, 0): MAX_EXPONENT, (0, MAX_EXPONENT): 2}
    )
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        high * y
    # the guard looks at the exponents that meet, not at one operand alone
    assert (Poly(ch, {(MAX_EXPONENT, 0): 1}) * y).terms == {(MAX_EXPONENT, 1): GS_ONE}


@pytest.mark.parametrize(
    "text", ["(x + i*y) * (x - i*y)", "(x + y) * (x - y)", "(1/2*x + 1/3*y)^2 - 1/4*x^2"]
)
def test_products_whose_terms_cancel_stay_canonical(text):
    p = parse_poly(text, CH)
    assert_canonical(p)
    assert len(p.terms) == 2
    assert parse_poly(format_poly(p), CH) == p


def test_constructor_refuses_an_exponent_given_twice():
    # two distinct keys that read as the same exponent tuple
    with pytest.raises(ValueError):
        Poly(Chart(("x", "y")), {(0, 1): 1, range(2): 2})


# -- the sum-of-products kernel ------------------------------------------------


def naive_sum_of_products(chart, terms):
    """The fold the kernel replaces: one Poly per product, scale and sum."""
    acc = Poly.zero(chart)
    for c, p, q in terms:
        acc = acc + (p * q).scale(c)
    return acc


def assert_same_poly(p, q):
    assert (p._num, p._den, p.chart) == (q._num, q._den, q.chart)


# the kernel's inputs as integer draws (see int_polys): zero included, at
# most five terms of degree <= 3 per variable
KERNEL_POLYS = int_polys(CH, 3, 0, 5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1, 2, -2)), KERNEL_POLYS, KERNEL_POLYS), max_size=5))
def test_sum_of_products_is_the_naive_fold(terms):
    out = poly_sums_of_products(CH, [terms])[0]
    assert_canonical(out)
    assert_same_poly(out, naive_sum_of_products(CH, terms))


def test_sum_of_products_cancels_to_the_canonical_zero():
    x, y = Poly.var(CH, "x"), Poly.var(CH, "y")
    half = Poly.const(CH, Fraction(1, 2))
    p = (x + y.scale(GS_I)).scale(Fraction(1, 3))
    terms = [(2, p, x * half), (-1, x, p), (1, y, half), (-2, half, y.scale(Fraction(1, 2)))]
    out = poly_sums_of_products(CH, [terms])[0]
    assert out.is_zero() and out._den == 1
    assert_same_poly(out, Poly.zero(CH))
    assert_same_poly(poly_sums_of_products(CH, [[]])[0], Poly.zero(CH))


def test_sum_of_products_divides_out_a_content_across_denominators():
    x, y = Poly.var(CH, "x"), Poly.var(CH, "y")
    # x y / 2 + x y / 6 = 4 x y / 6 over the common denominator 6: content 2
    terms = [(1, x.scale(Fraction(1, 2)), y), (1, x, y.scale(Fraction(1, 6)))]
    out = poly_sums_of_products(CH, [terms])[0]
    assert out.terms == {(1, 1, 0): GaussScalar.of(Fraction(2, 3))} and out._den == 3
    assert_canonical(out)
    assert_same_poly(out, naive_sum_of_products(CH, terms))


def test_sum_of_products_checks_every_pair_before_any_product(monkeypatch):
    formed = []
    loop = poly_module._mul_into
    monkeypatch.setattr(poly_module, "_mul_into", lambda *args: formed.append(1) or loop(*args))
    ch = Chart(("x", "y"))
    x, y = Poly.var(ch, "x"), Poly.var(ch, "y")
    high = Poly(ch, {(MAX_EXPONENT - 1, 0): 1})
    assert poly_sums_of_products(ch, [[(1, high, x), (-1, y, high)]])[0].terms == {
        (MAX_EXPONENT, 0): GS_ONE, (MAX_EXPONENT - 1, 1): -GS_ONE,
    }
    # the first pair reaches the limit, the second passes it
    terms = [(1, high, x), (1, x * x, high)]
    formed.clear()
    with pytest.raises(OverflowError):
        poly_sums_of_products(ch, [terms])[0]
    assert formed == []
    # a zero factor forms no product, so it cannot overflow
    assert poly_sums_of_products(ch, [[(1, high * x, Poly.zero(ch))]])[0].is_zero()
