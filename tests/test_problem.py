"""Problem-file parsing and serialization."""

from fractions import Fraction

import pytest

from cxpoisson import cli
from cxpoisson.grammar import parse_poly
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
    assert pf.chart.vars == ("x", "y", "z")
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
    # the labels name the sides, base first
    for body in ("fiber: u v ; base: q p", "foo: u v ; bar: q p"):
        with pytest.raises(ProblemParseError, match="^line 2: expected: bundle base: <vars> ; fiber: <vars>$"):
            parse_problem(f"chart u v q p\nbundle {body}\n")
    with pytest.raises(ProblemParseError, match="^line 3: duplicate bundle declaration$"):
        parse_problem(text + "bundle base: u ; fiber: v q p\n")


BIV = "chart x y\nbivector B {\n 1 2 = 1\n}\nbivector C {\n 1 2 = x\n}\n"
NF = ("chart x y\nbivector B {\n 1 2 = 1\n}\nvector X {\n 1 = 1\n}\n"
      "oneform a {\n 1 = 1\n}\noneform b {\n 2 = 1\n}\n")
OPS = "hat, check, tilde, hat_cot, check_cot, tilde_cot, conjugate, indices, theorem_7_18"

# (text, line, message or None): checks that fit no signature of their kind,
# and point names and check ids that are not single comma-free words; one
# message per shape
SIGNATURE_CASES = [
    (BIV + "check c1 jacobi B C\n", 8,
     "check 'c1' (jacobi) takes: bivector; found: B (bivector) C (bivector)"),
    (BIV + "check c1 invariants B C\n", 8, None),
    ("chart x y\ncheck c1 jacobi\n", 2, "check 'c1' (jacobi) takes: bivector; found: nothing"),
    ("chart x y\ncheck c1 invariants\n", 2, None),
    (NF + "check c1 jacobi X\n", 14, "check 'c1' (jacobi) takes: bivector; found: X (vector)"),
    ("chart x y\nbundle base: x ; fiber: y\n" + NF[10:] + "check c1 normal_form B a X b\n", 15,
     "check 'c1' (normal_form) takes: bivector vector oneform oneform; "
     "found: B (bivector) a (oneform) X (vector) b (oneform)"),
    (BIV + "check c1 dirac\n", 8, None),
    (BIV + "check c1 dirac : tilde\n", 8, None),
    (BIV + "check c1 dirac B tilde\n", 8, None),
    (BIV + "check c1 dirac B :\n", 8, None),
    (BIV + "check c1 dirac B : | tilde\n", 8, None),
    (BIV + "check c1 dirac B : tilde |\n", 8, None),
    (BIV + "check c1 dirac B : tilde : indices\n", 8, None),
    (BIV + "check c1 dirac B : tilde | frobnicate\n", 8,
     f"check 'c1' (dirac) takes: bivector : op [| op]..., op one of {OPS}; "
     "found: B (bivector) : tilde | frobnicate"),
    (NF + "check c1 normal_form B X a b\n", 14, "check 'c1' needs a bundle line"),
    ("chart x y\npoint = 1, 2\n", 2, "expected: point NAME = v, v, ..."),
    ("chart x y\npoint p q = 3, 4\n", 2, None),
    (BIV + "check a,b jacobi B\n", 8, "check id 'a,b' has a comma, which --check splits on"),
]
MESSAGES = {text: message for text, _, message in SIGNATURE_CASES if message}


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("point p = 1, 2\nchart x y", 1),  # chart must come first
        ("chart x y\nchart x y", 2),  # duplicate chart
        ("# c\nchart x x\n", 2),  # duplicate variable name
        ("chart\n", 1),  # no variable
        ("chart x y\npoint p = 1", 2),  # wrong coordinate count
        ("chart x y\npoint p = 1, a", 2),  # bad rational
        # a coordinate is [+-]p or [+-]p/q, under the digit limit
        ("chart x y\npoint p = 1.5, 1", 2),
        ("chart x y\npoint p = 1, 1e9", 2),
        ("chart x y\n#\npoint p = 1e999999999, 1", 3),
        ("chart x y\npoint p = 1_0, 1", 2),
        ("chart x y\npoint p = 1, 2/0", 2),
        ("chart x y\npoint p = 1, 2/", 2),
        ("chart x y\npoint p = --1, 1", 2),
        ("chart x y\npoint p = 1, " + "7" * 5000, 2),
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
        ("# c\nchart i j\nbivector B {\n 1 2 = 1 + i\n}\n", 2),  # i shadows the unit
        ("chart x y 1z\n", 1),  # a name the coefficient grammar cannot read
        ("chart x y-z\n", 1),
        ("chart x y\npoint p = 1, 2\n\npoint p = 3, 4\n", 4),  # repeated point name
        ("chart x y\nbivector B {\n 1 2 = 1\n 1 2 = x\n}\n", 4),  # repeated index
        ("chart x y\nvector X {\n 1 = 1\n 2 = y\n 1 = x\n}\n", 5),
        ("chart u v q p\nbundle fiber: u v ; base: q p\n", 2),  # labels swapped
        ("chart u v q p\nbundle foo: u v ; bar: q p\n", 2),  # labels unknown
        ("chart u v q p\nbundle base: u v ; fiber: q p\n\nbundle base: u ; fiber: v q p\n", 4),
        ("chart x y\nbivector P { junk\n 1 2 = 1\n}\n", 2),  # text after the brace
        *[(text, lineno) for text, lineno, _ in SIGNATURE_CASES],
    ],
)
def test_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ProblemParseError) as err:
        parse_problem(text)
    assert err.value.lineno == lineno
    if text in MESSAGES:
        assert str(err.value) == f"line {lineno}: {MESSAGES[text]}"


def test_a_block_may_follow_the_check_that_names_it():
    pf = parse_problem("chart x y\ncheck c1 jacobi B\nbivector B {\n 1 2 = x\n}\n")
    assert pf.checks == [("c1", "jacobi", ["B"])]


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


def test_each_coefficient_is_parsed_once(monkeypatch):
    pf = parse_problem(SAMPLE)
    assert pf.polys["y + i*(-1*y + z)"] == parse_poly("y + i*(-1*y + z)", pf.chart)
    assert set(pf.polys) == {"1 + i", "2*i", "y + i*(-1*y + z)", "3", "z", "x + y"}

    def no_parse(text, chart):
        raise AssertionError(f"{text!r} parsed again")

    monkeypatch.setattr(cli, "parse_poly", no_parse)
    nb = cli.build_field(pf, "bivector", "NB")
    assert nb.component((1, 2)) == pf.polys["y + i*(-1*y + z)"]
    # a file built or edited by hand still has its coefficients parsed
    pf.vectors["X"] = [(3, "x*z")]
    monkeypatch.setattr(cli, "parse_poly", parse_poly)
    assert cli.build_field(pf, "vector", "X").component((2,)) == parse_poly("x*z", pf.chart)


def test_misspelled_check_kind_is_refused_at_its_line():
    text = "chart x y\nbivector B {\n 1 2 = x\n}\ncheck c0 jacobi B\ncheck c1 jacobbi B\n"
    with pytest.raises(ProblemParseError, match="unknown check kind 'jacobbi'") as err:
        parse_problem(text)
    assert err.value.lineno == 6
    assert "jacobi, invariants, dirac, normal_form" in str(err.value)


def test_point_coordinates_are_rational_literals():
    pf = parse_problem("chart x y z\npoint p = -3/6, +2, 10/4\n")
    assert pf.points["p"] == (Fraction(-1, 2), Fraction(2), Fraction(5, 2))
    with pytest.raises(ProblemParseError, match="^line 2: bad rational: at column 2: trailing token 'e9'"):
        parse_problem("chart x y\npoint p = 1, 1e9\n")
