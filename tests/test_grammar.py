"""Polynomial text grammar."""

import time
from fractions import Fraction

import pytest

from cxpoisson import Chart, Poly, parse_poly
from cxpoisson.grammar import MAX_EXPONENT, MAX_NESTING, PolyParseError
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
