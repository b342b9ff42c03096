"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import Subspace, scalars
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

from conftest import reference_rref

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10)
gauss = st.builds(GaussScalar.of, fractions, fractions)


def test_constants():
    assert GS_I * GS_I == -GS_ONE
    assert GS_ZERO + GS_ONE == GS_ONE
    assert not GS_ZERO
    assert GS_ONE and GS_I


def test_coercion_mixes_with_int_and_fraction():
    z = GaussScalar.of(Fraction(1, 2), Fraction(3))
    assert z + 1 == GaussScalar.of(Fraction(3, 2), Fraction(3))
    assert 2 * z == GaussScalar.of(1, 6)
    assert z - Fraction(1, 2) == GaussScalar.of(0, 3)


def test_conjugate_and_inverse():
    z = GaussScalar.of(Fraction(3, 2), Fraction(-1, 4))
    assert z.conjugate() == GaussScalar.of(Fraction(3, 2), Fraction(1, 4))
    assert z * z.inverse() == GS_ONE
    with pytest.raises(ZeroDivisionError):
        GS_ZERO.inverse()


def test_str_forms():
    assert str(GS_I) == "i"
    assert str(GaussScalar.of(0, Fraction(3, 2))) == "3/2*i"
    assert str(GaussScalar.of(2, 0)) == "2"


@given(gauss, gauss, gauss)
@settings(max_examples=60)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + GS_ZERO == a
    assert a * GS_ONE == a
    assert a + (-a) == GS_ZERO


@given(gauss, gauss)
@settings(max_examples=60)
def test_conjugation_is_a_homomorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(gauss)
@settings(max_examples=60)
def test_inverse_roundtrip(a):
    if a:
        assert a.inverse() * a == GS_ONE


@given(gauss)
@settings(max_examples=60)
def test_norm_via_conjugate(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re == a.re * a.re + a.im * a.im


# -- the integer representation against a (Fraction, Fraction) model ---------

# wide enough that products and shared denominators pass a hundred bits
big_fractions = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)
)
rationals = st.one_of(big_fractions, st.integers(-20, 20), fractions)
pairs = st.tuples(rationals, rationals)


def model_str(re: Fraction, im: Fraction) -> str:
    """Reference rendering from Fraction parts: "re", "k*i" or "re + k*i"."""

    def imag(v):
        return "i" if v == 1 else "-i" if v == -1 else f"{v}*i"

    if im == 0:
        return str(re)
    if re == 0:
        return imag(im)
    return f"{re} {'+' if im > 0 else '-'} {imag(abs(im))}"


def no_fraction(*args):
    raise AssertionError("Fraction built while printing")


@given(st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
       st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
       st.one_of(st.integers(1, 3), st.integers(1, 10**20)))
@settings(max_examples=300)
def test_str_prints_from_the_triple_as_the_fraction_parts_would(a, b, d):
    # small values make parts of 0, 1 and -1 (printed "i", "-i") common
    z = scalars._make(a, b, d)
    with patch.object(scalars, "Fraction", no_fraction):
        text = str(z)
    assert text == model_str(Fraction(a, d), Fraction(b, d))


def check_against(z, re: Fraction, im: Fraction):
    """z is the scalar re + im i: parts, canonical triple, ==, hash, str, repr."""
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    for part in (z.re, z.im):
        assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1
    a, b, d = z.abd
    assert d > 0 and gcd(a, b, d) == 1 and Fraction(a, d) == re and Fraction(b, d) == im
    assert z == GaussScalar(re, im) and not z != GaussScalar(re, im)
    assert hash(z) == hash((Fraction(re), Fraction(im)))
    assert str(z) == model_str(Fraction(re), Fraction(im))
    assert repr(z) == f"GaussScalar({Fraction(re)!r}, {Fraction(im)!r})"
    assert bool(z) == (re != 0 or im != 0) and z.is_real() == (im == 0)


@given(pairs)
@settings(max_examples=200)
def test_constructor_and_of_accept_ints_and_fractions(p):
    re, im = p
    check_against(GaussScalar(re, im), Fraction(re), Fraction(im))
    check_against(GaussScalar.of(re, im), Fraction(re), Fraction(im))
    check_against(GaussScalar.of(re), Fraction(re), Fraction(0))


@given(pairs, pairs)
@settings(max_examples=300)
def test_operations_match_the_fraction_model(p, q):
    (a, b), (c, d) = [tuple(map(Fraction, t)) for t in (p, q)]
    z, w = GaussScalar(a, b), GaussScalar(c, d)
    check_against(z + w, a + c, b + d)
    check_against(z - w, a - c, b - d)
    check_against(z * w, a * c - b * d, a * d + b * c)
    check_against(-z, -a, -b)
    check_against(z.conjugate(), a, -b)
    # mixed with the rationals, on either side
    check_against(z + c, a + c, b)
    check_against(c - z, c - a, -b)
    check_against(c * z, a * c, b * c)
    assert (z == w) == ((a, b) == (c, d))
    n = c * c + d * d
    if n:
        check_against(w.inverse(), c / n, -d / n)
        check_against(z / w, (a * c + b * d) / n, (b * c - a * d) / n)
        if d == 0:
            check_against(z / c, a / c, b / c)
    else:
        with pytest.raises(ZeroDivisionError):
            w.inverse()
        with pytest.raises(ZeroDivisionError):
            z / w
    if a or b:
        m = a * a + b * b
        check_against(c / z, c * a / m, -c * b / m)


def test_copy_and_pickle_round_trip():
    import copy
    import pickle

    z = GaussScalar.of(Fraction(-7, 6), Fraction(5, 4))
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z


# -- the benchmark hook: __post_init__ runs once per scalar made -------------


def test_post_init_is_called_once_per_scalar_made(monkeypatch):
    assert "__post_init__" in vars(GaussScalar)
    original = GaussScalar.__post_init__
    made = []

    def counted(obj):
        made.append(obj)
        original(obj)

    monkeypatch.setattr(GaussScalar, "__post_init__", counted)

    def makes_one(fn):
        made.clear()
        out = fn()
        assert len(made) == 1 and made[0] is out

    z, w = GaussScalar(Fraction(3, 4), -2), GaussScalar.of(5, Fraction(1, 3))
    for fn in (
        lambda: GaussScalar(1, Fraction(2, 3)),
        lambda: GaussScalar.of(Fraction(1, 2)),
        lambda: z + w, lambda: z - w, lambda: z * w, lambda: z / w,
        lambda: -z, lambda: z.inverse(), lambda: z.conjugate(),
        lambda: z + GS_ONE, lambda: z * GS_I,
    ):
        makes_one(fn)

    # an int or Fraction operand is made a scalar first: two scalars, two calls
    made.clear()
    out = z * 2
    assert len(made) == 2 and made[1] is out

    # a basis read off canonical integer rows makes each nonzero entry once
    rows = [[z, w, GS_ZERO], [w, z, GS_ONE], [z + w, z + w, GS_ONE]]
    S = Subspace(3, rows)
    made.clear()
    basis = S.basis
    fresh = [x for r in basis for x in r if x is not GS_ZERO]
    assert len(made) == len(fresh) and {id(x) for x in made} == {id(x) for x in fresh}
    assert [list(r) for r in basis] == reference_rref(rows)[0]


def test_instances_are_slotted_and_immutable():
    z = GaussScalar.of(1, 2)
    assert not hasattr(z, "__dict__")
    for name, value in (("abd", (0, 0, 1)), ("re", Fraction(0)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(z, name, value)
    with pytest.raises(AttributeError):
        del z.abd
    assert z == GaussScalar.of(1, 2)
