"""Exact Gaussian-rational arithmetic.

A GaussScalar is the complex number (a + b i)/d.  It holds the integer
triple abd = (a, b, d) over one shared denominator, in lowest terms: d > 0
and gcd(a, b, d) == 1.  Every value has exactly one such triple, so
structural equality is value equality.  Add, subtract, multiply, divide
and conjugate are integer arithmetic followed by one gcd, and inverse is
one divided by the scalar; each, and the constructor, has one formula with
no fast path beside it.  The parts are read back as Fractions through .re
and .im; str prints them from abd, through the entry formatter _gauss_str
that also writes the integer rows of a subspace.

This is the coefficient field for every computation in the package: all
identity checks are exact, with tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

Rational = Union[int, Fraction]


class GaussScalar:
    """Immutable (a + b i)/d with integers in lowest terms; see the module."""

    __slots__ = ("abd",)
    abd: Tuple[int, int, int]

    def __init__(self, re: Rational, im: Rational):
        ra, rd = _parts(re)
        ia, id_ = _parts(im)
        g = gcd(rd, id_)
        _set(self, (ra * (id_ // g), ia * (rd // g), rd // g * id_))
        self.__post_init__()

    def __post_init__(self):
        """Reduce abd to lowest terms with a positive denominator.

        Every construction path (constructor, arithmetic, linalg output) calls
        this exactly once, through the class attribute.
        """
        a, b, d = self.abd
        if d != 1:
            g = gcd(a, b, d)
            if d < 0:
                g = -g
            if g != 1:
                _set(self, (a // g, b // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussScalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (GaussScalar, (self.re, self.im))

    @staticmethod
    def of(re: Rational = 0, im: Rational = 0) -> "GaussScalar":
        return GaussScalar(re, im)

    @property
    def re(self) -> Fraction:
        a, _, d = self.abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.abd
        return Fraction(b, d)

    def __bool__(self) -> bool:
        a, b, _ = self.abd
        return a != 0 or b != 0

    def is_real(self) -> bool:
        return self.abd[1] == 0

    def conjugate(self) -> "GaussScalar":
        a, b, d = self.abd
        return _make(a, -b, d)

    def __add__(self, other):
        a1, b1, d1 = self.abd
        a2, b2, d2 = _coerce(other).abd
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self.abd
        return _make(-a, -b, d)

    def __sub__(self, other):
        a1, b1, d1 = self.abd
        a2, b2, d2 = _coerce(other).abd
        return _make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        a1, b1, d1 = self.abd
        a2, b2, d2 = _coerce(other).abd
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "GaussScalar":
        return GS_ONE / self

    def __truediv__(self, other):
        a1, b1, d1 = self.abd
        a2, b2, d2 = _coerce(other).abd
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("inverse of zero GaussScalar")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2)
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if type(other) is GaussScalar:
            return self.abd == other.abd
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self) -> str:
        a, b, d = self.abd
        return _gauss_str(a, b, d)

    def __repr__(self) -> str:
        return f"GaussScalar({self.re!r}, {self.im!r})"


_new = object.__new__
_set = GaussScalar.abd.__set__


def _make(a: int, b: int, d: int) -> GaussScalar:
    """The GaussScalar (a + b i)/d for integers with d != 0, reduced."""
    z = _new(GaussScalar)
    _set(z, (a, b, d))
    z.__post_init__()
    return z


def _parts(x) -> Tuple[int, int]:
    """(numerator, denominator) of a rational given as int, Fraction or
    anything Fraction accepts."""
    t = type(x)
    if t is not int and t is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _gauss_str(a: int, b: int, d: int) -> str:
    """The text of (a + b i)/d for d > 0, in lowest terms or not: "re",
    "k*i" or "re + k*i", each part as its Fraction prints, read off the
    integers without making one."""
    if b == 0:
        return _ratio_str(a, d)
    if a == 0:
        return _imag_str(b, d)
    sign = "+" if b > 0 else "-"
    return f"{_ratio_str(a, d)} {sign} {_imag_str(abs(b), d)}"


def _ratio_str(a: int, d: int) -> str:
    """str(Fraction(a, d)) for d > 0."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{_ratio_str(b, d)}*i"


def _coerce(x) -> GaussScalar:
    if type(x) is GaussScalar:
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussScalar")


GS_ZERO = GaussScalar(0, 0)
GS_ONE = GaussScalar(1, 0)
GS_I = GaussScalar(0, 1)
