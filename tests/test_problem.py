"""Problem-file parsing and serialization."""

from fractions import Fraction

import pytest

from cxpoisson.problem import ProblemParseError, dumps, parse_problem

SAMPLE = """\
# running example
chart x y z
point p0 = 1/2, 1, 2
point p1 = 1, 1, 1
bivector NB {
  1 2 = 1 + i
  1 3 = 2*i
  2 3 = y + i*(-1*y + z)   # trailing comment
}
form om {
  1 2 = 3
}
vector X {
  3 = z
}
oneform xi {
  1 = x + y
}
check c1 jacobi NB
check c2 invariants NB
check c3 dirac NB : tilde | indices
"""


def test_parse_sample():
    pf = parse_problem(SAMPLE)
    assert pf.chart_vars == ("x", "y", "z")
    assert pf.points["p0"] == (Fraction(1, 2), Fraction(1), Fraction(2))
    assert pf.bivectors["NB"][0] == (1, 2, "1 + i")
    assert pf.bivectors["NB"][2] == (2, 3, "y + i*(-1*y + z)")
    assert pf.forms["om"] == [(1, 2, "3")]
    assert pf.vectors["X"] == [(3, "z")]
    assert pf.oneforms["xi"] == [(1, "x + y")]
    assert pf.checks[0] == ("c1", "jacobi", ["NB"])
    assert pf.checks[2] == ("c3", "dirac", ["NB", ":", "tilde", "|", "indices"])


def test_roundtrip_is_identity():
    pf = parse_problem(SAMPLE)
    assert parse_problem(dumps(pf)) == pf
    assert dumps(parse_problem(dumps(pf))) == dumps(pf)


def test_bundle_declaration():
    text = "chart u v q p\nbundle base: u v ; fiber: q p\n"
    pf = parse_problem(text)
    assert pf.bundle == (("u", "v"), ("q", "p"))
    assert parse_problem(dumps(pf)) == pf
    with pytest.raises(ProblemParseError):
        parse_problem("chart u v q p\nbundle base: u q ; fiber: v p\n")
    with pytest.raises(ProblemParseError):
        parse_problem("chart u v\nbundle base u fiber v\n")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("point p = 1, 2\nchart x y", 1),  # chart must come first
        ("chart x y\nchart x y", 2),  # duplicate chart
        ("# c\nchart x x\n", 2),  # duplicate variable name
        ("chart\n", 1),  # no variable
        ("chart x y\npoint p = 1", 2),  # wrong coordinate count
        ("chart x y\npoint p = 1, a", 2),  # bad rational
        ("chart x y\nbivector B {\n 1 2 = 1", 2),  # unterminated block
        ("chart x y\nbivector B {\n 2 1 = 1\n}", 3),  # i < j violated
        ("chart x y\nbivector B {\n 1 3 = 1\n}", 3),  # index out of range
        ("chart x y\nbivector B {\n 1 = 1\n}", 3),  # wrong index count
        ("chart x y\nbivector B {\n 1 2 = w\n}", 3),  # bad coefficient
        ("chart x y\nbivector B {\n 1 2 = 1/0\n}", 3),  # zero denominator
        ("chart x y\nbivector B {\n 1 2 = x^200000\n}", 3),  # exponent too large
        ("chart x y z w\nbivector B {\n 1 2 = (x+y+z+w)^64\n}", 3),  # product too large
        ("chart x y\nfrobnicate\n", 2),  # unknown keyword
        ("chart x y\ncheck c1\n", 2),  # missing check kind
        ("chart x y\ncheck c1 jacobi Q\n", 2),  # unknown name reference
        ("chart x y\n\n# c\ncheck c1 jacobi Q\ncheck c2 normal_form R\n", 4),
        ("chart x y\nbivector B {\n 1 2 = 1\n}\ncheck c1 jacobi B\ncheck c2 invariants Q\n", 6),
        ("", 1),  # empty file
    ],
)
def test_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ProblemParseError) as err:
        parse_problem(text)
    assert err.value.lineno == lineno


def test_duplicate_names_rejected():
    base = "chart x y\nbivector B {\n 1 2 = 1\n}\n"
    with pytest.raises(ProblemParseError):
        parse_problem(base + "bivector B {\n 1 2 = 2\n}\n")
    with pytest.raises(ProblemParseError):
        parse_problem(base + "check c1 jacobi B\ncheck c1 jacobi B\n")


def test_coefficients_kept_verbatim():
    text = "chart x y\nbivector B {\n 1 2 = 1    +   i\n}\n"
    pf = parse_problem(text)
    assert pf.bivectors["B"] == [(1, 2, "1    +   i")]
    assert "1    +   i" in dumps(pf)
