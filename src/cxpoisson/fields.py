"""Graded complex multivector fields and differential forms on a chart.

Both kinds store components on strictly increasing 0-based index tuples with
Poly coefficients; inputs with unordered tuples are sign-normalized.  Degree 0
holds a single complex function under the empty tuple.

The Schouten bracket is computed in the odd-coordinate representation: a
degree-p multivector is a superfunction P = sum P_I(x) th_{i1}...th_{ip} with
anticommuting th_i, and

    [P,Q] = sum_l ( dP/dth_l * dQ/dx_l - (-1)^{(p-1)(q-1)} dQ/dth_l * dP/dx_l )

with left odd derivatives.  On vector fields this is the Lie bracket, on
(X, f) it gives X(f), and graded antisymmetry/Jacobi hold identically.  This
is the generator formula of the appendix extended by Leibniz, folded into one
expression.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Sequence, Tuple, Union

from .poly import Chart, Poly, poly_eval, poly_partial
from .scalars import GS_I, GaussScalar, Rational, _coerce

Index = Tuple[int, ...]


def normalize_index(idx: Sequence[int]) -> Tuple[int, Index]:
    """Sort an index tuple, returning (sign, sorted) or (0, ()) on repeats."""
    return _normalized(tuple(idx))


@lru_cache(maxsize=4096)
def _normalized(idx: Index) -> Tuple[int, Index]:
    idx = list(idx)
    sign = 1
    # insertion sort, counting transpositions
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return 0, ()
    return sign, tuple(idx)


class GradedField:
    """Shared representation for MultiField and FormField.

    The constructor validates and sign-normalizes every index.  The
    operations of this module build their results with _field, which trusts
    that the keys are already normalized and only drops zero components.
    """

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: Mapping[Sequence[int], Poly]):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.chart = chart
        self.degree = degree
        clean: Dict[Index, Poly] = {}
        for idx, p in comps.items():
            if len(idx) != degree:
                raise ValueError(f"index {tuple(idx)} has wrong length for degree {degree}")
            if any(j < 0 or j >= chart.dim for j in idx):
                raise ValueError(f"index {tuple(idx)} out of range for dim {chart.dim}")
            sign, key = normalize_index(idx)
            if sign == 0 or p.is_zero():
                continue
            q = p if sign == 1 else -p
            clean[key] = clean[key] + q if key in clean else q
        self.comps = {k: v for k, v in clean.items() if not v.is_zero()}

    # construction helpers

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree, {})

    @classmethod
    def function(cls, chart: Chart, p: Poly):
        return cls(chart, 0, {(): p})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.degree,
                     frozenset(self.comps.items())))

    def component(self, idx: Sequence[int]) -> Poly:
        sign, key = normalize_index(idx)
        if sign == 0 or key not in self.comps:
            return Poly.zero(self.chart)
        p = self.comps[key]
        return p if sign == 1 else -p

    def __add__(self, other):
        _check_same(self, other)
        out = dict(self.comps)
        for k, p in other.comps.items():
            out[k] = out[k] + p if k in out else p
        return _field(type(self), self.chart, self.degree, out)

    def __neg__(self):
        return _field(type(self), self.chart, self.degree, {k: -p for k, p in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Union[Rational, GaussScalar]):
        c = _coerce(c)
        return _field(
            type(self), self.chart, self.degree, {k: p.scale(c) for k, p in self.comps.items()}
        )

    def conjugate(self):
        return _field(
            type(self), self.chart, self.degree,
            {k: p.conjugate() for k, p in self.comps.items()},
        )

    def __str__(self):
        if not self.comps:
            return "0"
        sym = "dx" if isinstance(self, FormField) else "e"
        chunks = []
        for idx in sorted(self.comps):
            basis = "^".join(f"{sym}[{self.chart.vars[j]}]" for j in idx)
            if basis:
                chunks.append(f"({self.comps[idx]}) {basis}")
            else:
                chunks.append(f"({self.comps[idx]})")
        return " + ".join(chunks)

    __repr__ = __str__


class MultiField(GradedField):
    """Complex multivector field (degree-k section of the exterior tangent)."""


class FormField(GradedField):
    """Complex differential form with polynomial coefficients."""


_new = object.__new__


def _field(cls, chart: Chart, degree: int, comps: Dict[Index, Poly]) -> GradedField:
    """The trusted constructor: every key of comps must be strictly
    increasing, in range for the chart and of length degree."""
    m = _new(cls)
    m.chart = chart
    m.degree = degree
    m.comps = {k: p for k, p in comps.items() if p}
    return m


def _check_same(a: GradedField, b: GradedField):
    if type(a) is not type(b):
        raise TypeError(f"kind mismatch: {type(a).__name__} vs {type(b).__name__}")
    if a.chart != b.chart:
        raise ValueError("chart mismatch")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")


# -- decomposition ---------------------------------------------------------


def decompose(m: GradedField) -> Tuple[GradedField, GradedField]:
    """Split into real and imaginary parts (both with real coefficients)."""
    re = _field(type(m), m.chart, m.degree, {k: p.real_part() for k, p in m.comps.items()})
    im = _field(type(m), m.chart, m.degree, {k: p.imag_part() for k, p in m.comps.items()})
    return re, im


def recompose(re: GradedField, im: GradedField) -> GradedField:
    return re + im.scale(GS_I)


# -- wedge -----------------------------------------------------------------


def wedge(a: GradedField, b: GradedField) -> GradedField:
    if type(a) is not type(b):
        raise TypeError("wedge requires operands of the same kind")
    if a.chart != b.chart:
        raise ValueError("chart mismatch")
    out: Dict[Index, Poly] = {}
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


# -- contraction -----------------------------------------------------------


def contract(z: MultiField, a: FormField) -> FormField:
    """Interior product of a degree-1 multivector into a form, C-bilinear."""
    if not isinstance(z, MultiField) or z.degree != 1:
        raise ValueError("contract expects a degree-1 MultiField")
    if not isinstance(a, FormField):
        raise TypeError("contract expects a FormField")
    if a.degree < 1:
        raise ValueError("cannot contract into a degree-0 form")
    if z.chart != a.chart:
        raise ValueError("chart mismatch")
    return _interior(z, a)


def contract_form(alpha: FormField, m: MultiField) -> MultiField:
    """Interior product of a one-form into a multivector (first slot)."""
    if not isinstance(alpha, FormField) or alpha.degree != 1:
        raise ValueError("contract_form expects a degree-1 FormField")
    if m.degree < 1:
        raise ValueError("cannot contract into a degree-0 multivector")
    if alpha.chart != m.chart:
        raise ValueError("chart mismatch")
    return _interior(alpha, m)


def _interior(v: GradedField, field: GradedField) -> GradedField:
    """First-slot interior product of the degree-1 field v into field."""
    out: Dict[Index, Poly] = {}
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


def apply_to_forms(m: MultiField, alphas: Sequence[FormField]) -> Poly:
    """Evaluate a degree-k multivector on k one-forms: m(a_1, ..., a_k).

    The first form fills the first slot, so this iterates first-slot
    contraction: m(a1,...,ak) = i_{ak} ... i_{a1} m.
    """
    if len(alphas) != m.degree:
        raise ValueError("number of one-forms must equal the degree")
    cur: MultiField = m
    for alpha in alphas:
        cur = contract_form(alpha, cur)
    return cur.component(())


# -- exterior derivative and differential ----------------------------------


def d_complex(a: FormField) -> FormField:
    """Complexified exterior derivative d(a1 + i a2) = d a1 + i d a2."""
    out: Dict[Index, Poly] = {}
    chart = a.chart
    for idx, p in a.comps.items():
        for j, name in enumerate(chart.vars):
            dp = poly_partial(p, name)
            if dp.is_zero():
                continue
            sign, key = normalize_index((j,) + idx)
            if sign == 0:
                continue
            term = dp if sign == 1 else -dp
            out[key] = out[key] + term if key in out else term
    return _field(FormField, chart, a.degree + 1, out)


def complex_differential(f: MultiField) -> FormField:
    """T_C f = d f1 + i d f2 for a degree-0 field f = f1 + i f2."""
    if f.degree != 0:
        raise ValueError("complex_differential expects a degree-0 MultiField")
    p = f.component(())
    return _field(
        FormField,
        f.chart,
        1,
        {(j,): poly_partial(p, name) for j, name in enumerate(f.chart.vars)},
    )


def lie_derivative(z: MultiField, a: FormField) -> FormField:
    """Complexified Lie derivative via the Cartan formula i_z d + d i_z."""
    if z.degree != 1:
        raise ValueError("lie_derivative expects a degree-1 MultiField")
    if z.chart != a.chart:
        raise ValueError("chart mismatch")
    first = contract(z, d_complex(a))
    if a.degree == 0:
        return first
    return first + d_complex(contract(z, a))


# -- Schouten bracket ------------------------------------------------------


def _theta_partial(m: MultiField, l: int) -> MultiField:
    """Left odd derivative d/dth_l in the superfunction picture."""
    out: Dict[Index, Poly] = {}
    for idx, p in m.comps.items():
        if l not in idx:
            continue
        pos = idx.index(l)
        rest = idx[:pos] + idx[pos + 1:]
        term = p if pos % 2 == 0 else -p
        out[rest] = out[rest] + term if rest in out else term
    return _field(MultiField, m.chart, m.degree - 1, out)


def _coeff_partial(m: MultiField, name: str) -> MultiField:
    return _field(
        MultiField, m.chart, m.degree, {k: poly_partial(p, name) for k, p in m.comps.items()}
    )


def schouten(a: MultiField, b: MultiField) -> MultiField:
    """Complexified Schouten-Nijenhuis bracket [a, b].

    In the superfunction picture [P,Q] = sum_l ((-1)^{p+1} dP/dth_l dQ/dx_l
    - dP/dx_l dQ/dth_l); reordering the second product for left-to-right
    evaluation brings in the Koszul sign (-1)^{p(q-1)}.  This normalization
    has [X, Q] = L_X Q for every vector field X, [X, f] = X(f), and
    [a, b] = -(-1)^{(p-1)(q-1)} [b, a].
    """
    if a.chart != b.chart:
        raise ValueError("chart mismatch")
    chart = a.chart
    p, q = a.degree, b.degree
    deg = p + q - 1
    if deg < 0:
        # [f, g] = 0 for two functions
        return MultiField.zero(chart, 0)
    out: Dict[Index, Poly] = {}
    left_minus = (p + 1) % 2 == 1
    right_minus = (p * (q - 1)) % 2 == 0
    for l, name in enumerate(chart.vars):
        if p >= 1:
            _add_into(out, wedge(_theta_partial(a, l), _coeff_partial(b, name)), left_minus)
        if q >= 1:
            _add_into(out, wedge(_theta_partial(b, l), _coeff_partial(a, name)), right_minus)
    return _field(MultiField, chart, deg, out)


def _add_into(out: Dict[Index, Poly], t: GradedField, negate: bool):
    """Add the components of t (or of -t when negate) to out."""
    for key, term in t.comps.items():
        if negate:
            term = -term
        out[key] = out[key] + term if key in out else term


# -- evaluation at points --------------------------------------------------


def eval_field(m: GradedField, point: Mapping[str, Rational]) -> Dict[Index, GaussScalar]:
    """Evaluate every component at a rational point; zeros dropped."""
    out: Dict[Index, GaussScalar] = {}
    for idx, p in m.comps.items():
        v = poly_eval(p, point)
        if v:
            out[idx] = v
    return out
