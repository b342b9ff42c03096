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

Wedge, interior product and Schouten bracket each make one pass over their
term pairs: one poly.poly_graded_products per operation.  A field enters as
an operand, its components P_I each with the index set I as a theta-mask
(bit j for th_j).  Two components multiply only when their masks are
disjoint, with the sign that sorts th_I th_J read from a table keyed by the
two masks.  The Schouten halves are the pairs (dP/dth_l, dQ/dx_l), one per
l; the interior product by a degree-1 field v puts v_j on the mask -2^j,
which stands for d/dth_j, so that i_v F is one product of v by F.  Each
output component sums in its own numerator dict over one denominator and is
reduced once.  [P, P] forms one half, and a signed sum of brackets is one
pass too (see schouten_sum).

Every derivative of a field's components (d, T_C, both Schouten halves, the
Jacobi PDE, the normal form's Euler check) is read from the field's own table
of nonzero partials, d[l] = {I: dP_I/dx_l} (GradedField.partials), so a field
that several of them differentiate takes each partial once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .poly import Chart, Poly, _Memo, poly_eval, poly_graded_products, poly_partial
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

    The constructor checks each component's chart and sign-normalizes every
    index.  The operations of this module build their results with _field,
    which trusts that the keys are normalized and only drops zero components.

    A field is not changed once it is made: partials builds its table on
    first read and keeps it, so nothing assigns into comps afterwards.

    The slot _closed marks a form known to be closed (da = 0) by how it
    was built.  Only complex_differential (T_C f is exact) and d_complex
    (d d = 0) set it, to True, on their result; on every other field it is
    unset, read as getattr(a, "_closed", False), so it is never guessed.
    The one-form bracket skips the d of a marked form.
    """

    __slots__ = ("chart", "degree", "comps", "_partials", "_closed")

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
            if p.chart is not chart and p.chart != chart:
                raise ValueError(f"component {tuple(idx)} is on chart {p.chart.vars}, not {chart.vars}")
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

    @property
    def partials(self) -> List[Dict[Index, Poly]]:
        """d[l] = {I: dP_I/dx_l} over the nonzero partials; built on first read and kept."""
        try:
            return self._partials
        except AttributeError:
            self._partials = [{idx: dp for idx, p in self.comps.items() if (dp := poly_partial(p, name))}
                              for name in self.chart.vars]
            return self._partials

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


# the theta-mask of a strictly increasing index, bit j set for each j in it,
# and back
_MASKS = _Memo(lambda idx: sum(1 << j for j in idx))
_INDICES = _Memo(lambda mask: tuple(j for j in range(mask.bit_length()) if mask >> j & 1))


def _graded(cls, chart: Chart, degree: int, terms) -> GradedField:
    """The field of kind cls whose superfunction is the sum of c * A * B over
    the (c, A, B) in terms: one poly_graded_products."""
    return _field(cls, chart, degree, {_INDICES[m]: p for m, p in poly_graded_products(chart, terms).items()})


def _parts(comps: Mapping[Index, Poly]):
    """The superfunction sum_I comps[I] th_I as the parts of one operand."""
    return [(_MASKS[idx], 1, p) for idx, p in comps.items()]


def _theta_partials(m: GradedField):
    """[dm/dth_l for each l] as operand parts, with the left odd derivative
    d(th_I)/dth_l = (-1)^pos th_(I without l) for l at pos in I."""
    parts = [[] for _ in range(m.chart.dim)]
    for idx, p in m.comps.items():
        mask = _MASKS[idx]
        for pos, l in enumerate(idx):
            parts[l].append((mask ^ (1 << l), -1 if pos % 2 else 1, p))
    return parts


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
    return _graded(type(a), a.chart, a.degree + b.degree, [(1, _parts(a.comps), _parts(b.comps))])


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
    """First-slot interior product of the degree-1 field v into field,
    sum_j v_j dfield/dth_j: the product of v, on the masks -2^j that stand
    for d/dth_j, by field."""
    dv = [(-1 << j, 1, vj) for (j,), vj in v.comps.items()]
    return _graded(type(field), field.chart, field.degree - 1, [(1, dv, _parts(field.comps))])


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
    """Complexified exterior derivative d(a1 + i a2) = d a1 + i d a2,
    marked closed since d d = 0."""
    out: Dict[Index, Poly] = {}
    for j, dj in enumerate(a.partials):
        for idx, dp in dj.items():
            sign, key = _normalized((j,) + idx)
            if sign == 0:
                continue
            term = dp if sign == 1 else -dp
            out[key] = out[key] + term if key in out else term
    return _marked_closed(_field(FormField, a.chart, a.degree + 1, out))


def complex_differential(f: MultiField) -> FormField:
    """T_C f = d f1 + i d f2 for a degree-0 field f = f1 + i f2, marked
    closed since it is exact."""
    if f.degree != 0:
        raise ValueError("complex_differential expects a degree-0 MultiField")
    return _marked_closed(_field(FormField, f.chart, 1, {(j,): dj[()] for j, dj in enumerate(f.partials) if dj}))


def _marked_closed(a: FormField) -> FormField:
    a._closed = True
    return a


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


def schouten(a: MultiField, b: MultiField) -> MultiField:
    """Complexified Schouten-Nijenhuis bracket [a, b]: schouten_sum of the
    one pair (1, a, b), so one kernel pass.

    In the superfunction picture [P,Q] = sum_l ((-1)^{p+1} dP/dth_l dQ/dx_l
    - dP/dx_l dQ/dth_l); reordering the second product for left-to-right
    evaluation brings in the Koszul sign (-1)^{p(q-1)}.  This normalization
    has [X, Q] = L_X Q for every vector field X, [X, f] = X(f), and
    [a, b] = -(-1)^{(p-1)(q-1)} [b, a].
    """
    return schouten_sum([(1, a, b)])


def schouten_sum(terms: Sequence[Tuple[int, MultiField, MultiField]]) -> MultiField:
    """sum c [a, b] over the (c, a, b) in terms, c an int, in one
    poly_graded_products (one kernel pass) for all the brackets.

    Each bracket contributes its halves, the terms c' * da/dth_l * db/dx_l
    over l with db/dx_l read from b's partials table.  With a passed as b,
    graded antisymmetry gives [a, a] = 0 at odd degree; at even degree both
    halves are -sum_l da/dth_l da/dx_l, so one is formed, with multiplicity
    2.  A pair with c = 0 adds nothing.

    Every pair must lie on the chart of the first one and have its output
    degree p + q - 1; a pair that does not, or an empty terms, raises
    ValueError.  Pairs of functions (output degree -1) give the zero
    function.
    """
    if not terms:
        raise ValueError("schouten_sum needs at least one pair")
    _, a0, b0 = terms[0]
    chart, deg = a0.chart, a0.degree + b0.degree - 1
    halves = []
    for c, a, b in terms:
        if a.chart != chart or b.chart != chart:
            raise ValueError("chart mismatch")
        p, q = a.degree, b.degree
        if p + q - 1 != deg:
            raise ValueError(f"output degree mismatch: {p + q - 1} vs {deg}")
        if not c:
            continue
        if a is not b:
            halves.append((a, b, -c if p % 2 == 0 else c))
            halves.append((b, a, -c if p * (q - 1) % 2 == 0 else c))
        elif p % 2 == 0:
            halves.append((a, a, -2 * c))
    if deg < 0:
        # [f, g] = 0 for two functions
        return MultiField.zero(chart, 0)
    return _graded(MultiField, chart, deg, [
        (c, dth, _parts(dx))
        for x, y, c in halves
        for dth, dx in zip(_theta_partials(x), y.partials) if dth and dx
    ])


# -- evaluation at points --------------------------------------------------


def eval_field(m: GradedField, point: Mapping[str, Rational]) -> Dict[Index, GaussScalar]:
    """Evaluate every component at a rational point; zeros dropped."""
    out: Dict[Index, GaussScalar] = {}
    for idx, p in m.comps.items():
        v = poly_eval(p, point)
        if v:
            out[idx] = v
    return out
