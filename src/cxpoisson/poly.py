"""Sparse multivariate polynomials over Gaussian rationals on a named chart.

A Poly maps exponent tuples (one nonnegative int per chart variable) to
GaussScalar coefficients; zero coefficients are never stored, so equality is
a dict comparison.  Printing uses graded lexicographic order on the chart's
variable order, which makes output canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from .scalars import GS_ONE, GS_ZERO, GaussScalar, Rational, _coerce, _make

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class Chart:
    vars: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(self.vars) < 1:
            raise ValueError("chart needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable names in chart {self.vars}")

    @property
    def dim(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in chart {self.vars}") from None


class Poly:
    """Immutable-by-convention sparse polynomial; use the module operations."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, GaussScalar]):
        self.chart = chart
        clean: Dict[Exponent, GaussScalar] = {}
        dim = chart.dim
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} has wrong length for {chart.vars}")
            if c:
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly(chart, {})

    @staticmethod
    def const(chart: Chart, value: Union[Rational, GaussScalar]) -> "Poly":
        c = _coerce(value)
        if not c:
            return Poly(chart, {})
        return Poly(chart, {(0,) * chart.dim: c})

    @staticmethod
    def var(chart: Chart, name: str) -> "Poly":
        exp = [0] * chart.dim
        exp[chart.index(name)] = 1
        return Poly(chart, {tuple(exp): GS_ONE})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.abd[1] == 0 for c in self.terms.values())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- arithmetic via operators -----------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _same_chart(self, other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, GS_ZERO) + c
        return Poly(self.chart, out)

    def __neg__(self) -> "Poly":
        return Poly(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _same_chart(self, other)
        out: Dict[Exponent, GaussScalar] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, GS_ZERO) + ca * cb
        return Poly(self.chart, out)

    def scale(self, c: Union[Rational, GaussScalar]) -> "Poly":
        c = _coerce(c)
        return Poly(self.chart, {e: co * c for e, co in self.terms.items()})

    # -- parts -------------------------------------------------------------

    def real_part(self) -> "Poly":
        return Poly(
            self.chart,
            {e: _make(c.abd[0], 0, c.abd[2]) for e, c in self.terms.items()},
        )

    def imag_part(self) -> "Poly":
        return Poly(
            self.chart,
            {e: _make(c.abd[1], 0, c.abd[2]) for e, c in self.terms.items()},
        )

    def conjugate(self) -> "Poly":
        return Poly(self.chart, {e: c.conjugate() for e, c in self.terms.items()})

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r} on {self.chart.vars})"


def _same_chart(a: Poly, b: Poly):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError(f"chart mismatch: {a.chart.vars} vs {b.chart.vars}")


# -- free-function operation names -----------------------------------------


def poly_arith(op: str, a: Poly, b) -> Poly:
    """Dispatch add/sub/mul/scale; scale takes a scalar second operand."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "scale":
        return a.scale(b)
    raise ValueError(f"unknown op kind {op!r}")


def poly_partial(p: Poly, var: str) -> Poly:
    j = p.chart.index(var)
    out: Dict[Exponent, GaussScalar] = {}
    for exp, c in p.terms.items():
        k = exp[j]
        if k == 0:
            continue
        e = list(exp)
        e[j] = k - 1
        e = tuple(e)
        out[e] = out.get(e, GS_ZERO) + c * k
    return Poly(p.chart, out)


def poly_eval(p: Poly, point: Mapping[str, Rational]) -> GaussScalar:
    vals = []
    for name in p.chart.vars:
        if name not in point:
            raise KeyError(f"point missing value for variable {name!r}")
        vals.append(Fraction(point[name]))
    total = GS_ZERO
    for exp, c in p.terms.items():
        factor = Fraction(1)
        for k, v in zip(exp, vals):
            if k:
                factor *= v**k
        total = total + c * factor
    return total


def poly_subst_zero(p: Poly, names) -> Poly:
    """Set the listed variables to zero (restriction to a coordinate subspace)."""
    idxs = [p.chart.index(n) for n in names]
    out: Dict[Exponent, GaussScalar] = {}
    for exp, c in p.terms.items():
        if any(exp[j] for j in idxs):
            continue
        out[exp] = out.get(exp, GS_ZERO) + c
    return Poly(p.chart, out)


# -- canonical printing ----------------------------------------------------


def _grlex_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in exp))


def _monomial_str(chart: Chart, exp: Exponent) -> str:
    parts = []
    for name, k in zip(chart.vars, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def _coeff_str(c: GaussScalar) -> str:
    a, b, _ = c.abd
    if a and b:
        return f"({c})"
    return str(c)


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for exp in sorted(p.terms, key=_grlex_key):
        c = p.terms[exp]
        mono = _monomial_str(p.chart, exp)
        if not mono:
            chunks.append(_coeff_str(c))
        elif c == GS_ONE:
            chunks.append(mono)
        else:
            chunks.append(f"{_coeff_str(c)}*{mono}")
    return " + ".join(chunks)
