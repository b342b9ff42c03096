"""Polynomial text grammar."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import Chart, Poly, format_poly, parse_poly
from cxpoisson.grammar import MAX_EXPONENT, MAX_NESTING, PolyParseError, parse_rational
from cxpoisson.scalars import GS_I, GaussScalar

CH = Chart(("x", "y", "z"))


def test_literals():
    assert parse_poly("3", CH) == Poly.const(CH, 3)
    assert parse_poly("3/2", CH) == Poly.const(CH, Fraction(3, 2))
    assert parse_poly("i", CH) == Poly.const(CH, GS_I)
    assert parse_poly("-i", CH) == Poly.const(CH, -GS_I)
    assert parse_poly("0", CH).is_zero()


def test_variables_and_powers():
    x = Poly.var(CH, "x")
    y = Poly.var(CH, "y")
    assert parse_poly("x", CH) == x
    assert parse_poly("x^3", CH) == x * x * x
    assert parse_poly("x*y^2", CH) == x * y * y
    assert parse_poly("x^0", CH) == Poly.const(CH, 1)


def test_expressions():
    p = parse_poly("1 + 2*x - 3/4*y^2 + i*z", CH)
    q = (
        Poly.const(CH, 1)
        + Poly.var(CH, "x").scale(2)
        - (Poly.var(CH, "y") * Poly.var(CH, "y")).scale(Fraction(3, 4))
        + Poly.var(CH, "z").scale(GS_I)
    )
    assert p == q


def test_parentheses_and_unary():
    assert parse_poly("-(x + y)", CH) == -(Poly.var(CH, "x") + Poly.var(CH, "y"))
    assert parse_poly("(1 + i)*(1 - i)", CH) == Poly.const(CH, 2)
    assert parse_poly("--x", CH) == Poly.var(CH, "x")
    # a sign binds looser than `^`, also in front of a literal
    assert parse_poly("-2^2", CH) == Poly.const(CH, -4)
    assert parse_poly("-3/2^2 + --2^2", CH) == Poly.const(CH, Fraction(7, 4))
    assert parse_poly("x*-2^3", CH) == Poly.const(CH, -8) * Poly.var(CH, "x")
    # MAX_NESTING bounds the depth, not the count: sibling groups and signs pass
    k = MAX_NESTING + 1
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, CH) == Poly.var(CH, "x")
    assert parse_poly(" + ".join(["(-x)"] * k), CH) == Poly.const(CH, -k) * Poly.var(CH, "x")


def test_complex_coefficient_roundtrip():
    p = parse_poly("(1 + 2*i)*x*y + 3/2*i", CH)
    assert parse_poly(str(p), CH) == p


def test_chart_variable_named_i_shadows_unit():
    ch = Chart(("i", "j"))
    p = parse_poly("i^2", ch)
    assert p == Poly.var(ch, "i") * Poly.var(ch, "i")


def test_chart_names_that_are_operators_stay_operators():
    # a Chart built in code may name a variable like an operator or the end
    with pytest.raises(PolyParseError, match="^at column 3: unexpected token"):
        parse_poly("x*)", Chart(("x", ")")))
    with pytest.raises(PolyParseError, match="^at column 4: unexpected end of input"):
        parse_poly("x +", Chart(("x", "")))
    ch = Chart(("x", "("))
    assert parse_poly("(x)", ch) == Poly.var(ch, "x")


@pytest.mark.parametrize("text, column", [
    pytest.param("x +", 4, id="end-of-input"),
    pytest.param("w + 1", 1, id="unknown-variable"),
    pytest.param("x + w", 5, id="unknown-variable-later"),
    pytest.param("x^y", 3, id="exponent-not-an-integer"),
    pytest.param("(x", 3, id="unclosed-parenthesis"),
    pytest.param("x ? y", 3, id="unexpected-character"),
    pytest.param("x y", 3, id="trailing-token"),
    pytest.param("1/0", 3, id="zero-denominator"),
    # each level of nesting is a few parser frames: refused past MAX_NESTING,
    # not a RecursionError
    pytest.param("(" * 3000 + "x" + ")" * 3000, MAX_NESTING + 1, id="deep-parentheses"),
    pytest.param("-" * 3000 + "x", MAX_NESTING + 1, id="long-unary-chain"),
    # past Python's 4,300-digit limit on str -> int, not a ValueError from int()
    pytest.param("1" * 5000, 1, id="long-literal"),
    pytest.param("x^" + "1" * 5000, 3, id="long-exponent"),
])
def test_errors_carry_column(text, column):
    with pytest.raises(PolyParseError, match=f"^at column {column}: "):
        parse_poly(text, CH)


@pytest.mark.parametrize("base", ["x", "(3/2*y)", "(1 + i)", "(x - 2*i*y + 1/3)"])
def test_power_equals_repeated_product(base):
    b = parse_poly(base, CH)
    expected = Poly.const(CH, 1)
    for k in range(12):
        assert parse_poly(f"{base}^{k}", CH) == expected
        expected = expected * b


def test_exponent_above_the_maximum_is_refused_fast():
    assert parse_poly(f"x^{MAX_EXPONENT}", CH).terms == {(MAX_EXPONENT, 0, 0): GaussScalar.of(1)}
    assert len(parse_poly(f"(x + y)^{MAX_EXPONENT}", CH).terms) == MAX_EXPONENT + 1
    xyzw = Chart(("x", "y", "z", "w"))
    t0 = time.perf_counter()
    for text in (
        f"x^{MAX_EXPONENT + 1}",
        "x^200000",
        "(x + y)^99999999999999999999",
        # within the exponent cap, but the squarings pass MAX_PRODUCT_TERMS
        "(x + y + z + w)^64",
        "(x + y + z + w)^8 * (x + y + z + w)^8 * (x + y + z + w)^8",
    ):
        with pytest.raises(PolyParseError, match="exceeds the maximum"):
            parse_poly(text, xyzw)
    assert time.perf_counter() - t0 < 1.0


# -- differential test against Poly arithmetic -----------------------------
#
# An expression tree is (text, level, value): its text in the grammar, the
# precedence level of its outermost construct (1 sum, 2 product, 3 unary
# sign, 4 power, 5 atom) and its value built with Poly.const, Poly.var and
# Poly + - *.  A child is parenthesized only where the grammar needs it, so
# the trees exercise precedence as well as the atoms.

SP = st.sampled_from(["", " "])


def wrap(tree, level):
    text, lv, _ = tree
    return text if lv >= level else f"({text})"


LEAVES = st.one_of(
    st.integers(0, 10**6).map(lambda k: (str(k), 5, Poly.const(CH, k))),
    st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", 5, Poly.const(CH, Fraction(*pq)))),
    st.just(("i", 5, Poly.const(CH, GS_I))),
    st.sampled_from(CH.vars).map(lambda v: (v, 5, Poly.var(CH, v))),
)


def binary(a, op, b, sp):
    # sums and products associate to the left: the right operand binds tighter
    level = 1 if op in "+-" else 2
    value = a[2] + b[2] if op == "+" else a[2] - b[2] if op == "-" else a[2] * b[2]
    return (f"{wrap(a, level)}{sp}{op}{sp}{wrap(b, level + 1 if op in '+-' else 3)}", level, value)


def unary(sign, a, sp):
    return (f"{sign}{sp}{wrap(a, 3)}", 3, -a[2] if sign == "-" else a[2])


def power(a, k):
    value = Poly.const(CH, 1)
    for _ in range(k):
        value = value * a[2]
    return (f"{wrap(a, 5)}^{k}", 4, value)


TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.builds(binary, kids, st.sampled_from("+-*"), kids, SP),
    st.builds(unary, st.sampled_from("+-"), kids, SP),
    st.builds(power, kids, st.integers(0, 3)),
    kids.map(lambda a: (f"({a[0]})", 5, a[2])),
), max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_parse_equals_poly_arithmetic(tree):
    text, _, value = tree
    assert parse_poly(text, CH) == value


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_format_then_parse_is_the_identity(tree):
    value = tree[2]
    assert parse_poly(format_poly(value), CH) == value


# -- rational literals --------------------------------------------------------


@pytest.mark.parametrize("text, value", [
    ("0", (0, 1)), ("-0", (0, 1)), ("7", (7, 1)), ("+7", (7, 1)), ("-3/6", (-1, 2)),
    (" 10/4 ", (5, 2)), ("0/5", (0, 1)), ("1" + "0" * 100, (10**100, 1)),
])
def test_rational_literals(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text, column", [
    pytest.param("", 1, id="empty"),
    pytest.param("1.5", 2, id="decimal-point"),
    pytest.param("1e9", 2, id="exponent"),
    pytest.param("1e999999999", 2, id="huge-exponent"),
    pytest.param("1_0", 2, id="digit-separator"),
    pytest.param("--1", 2, id="two-signs"),
    pytest.param("x", 1, id="name"),
    pytest.param("1/0", 3, id="zero-denominator"),
    pytest.param("1/", 3, id="no-denominator"),
    pytest.param("1/-2", 3, id="signed-denominator"),
    pytest.param("1/2/3", 4, id="two-slashes"),
    pytest.param("(1)", 1, id="parenthesis"),
    pytest.param("1" * 5000, 1, id="long-numerator"),
    pytest.param("1/" + "1" * 5000, 3, id="long-denominator"),
])
def test_rational_refusals_carry_column(text, column):
    t0 = time.perf_counter()
    with pytest.raises(PolyParseError, match=f"^at column {column}: "):
        parse_rational(text)
    assert time.perf_counter() - t0 < 0.5
