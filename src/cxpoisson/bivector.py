"""Complex Poisson bivectors: integrability tests, Hamiltonian fields,
Casimirs, the one-form bracket, and the standard constructors.

Sharp convention used everywhere in this package: writing pi as a coefficient
matrix A (A[i][j] = component on e_i ^ e_j, skew), the anchor acts by plain
matrix-vector product, (pi# xi)_i = sum_j A[i][j] xi_j.  Equivalently
(u ^ v)#(xi) = xi(v) u - xi(u) v, and pi(alpha, beta) = alpha(pi# beta).
Hamiltonian fields are X_h = pi#(T_C h), which gives X_h(f) = {f, h}.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .fields import (
    FormField,
    MultiField,
    apply_to_forms,
    complex_differential,
    contract_form,
    d_complex,
    decompose,
    schouten,
    schouten_sum,
)
from .poly import Chart, Poly, poly_sums_of_products
from .scalars import GS_I


class ComplexBivector:
    """A degree-2 MultiField pi = pi1 + i pi2.  The real and imaginary parts
    are split off on the first read of pi1 or pi2 and kept, so a bivector
    that no check splits never pays for it."""

    __slots__ = ("body", "_parts")

    def __init__(self, body: MultiField):
        if body.degree != 2:
            raise ValueError("ComplexBivector needs a degree-2 MultiField")
        self.body = body

    @property
    def pi1(self) -> MultiField:
        return self._split()[0]

    @property
    def pi2(self) -> MultiField:
        return self._split()[1]

    def _split(self) -> Tuple[MultiField, MultiField]:
        try:
            return self._parts
        except AttributeError:
            self._parts = decompose(self.body)
            return self._parts

    @property
    def chart(self) -> Chart:
        return self.body.chart

    def __eq__(self, other):
        return isinstance(other, ComplexBivector) and self.body == other.body

    def __hash__(self):
        return hash(self.body)

    def __str__(self):
        return str(self.body)

    def coeff_matrix(self) -> List[List[Poly]]:
        """Full skew matrix of Poly entries, A[i][j] = pi(dx_i, dx_j)."""
        return _part_matrix(self.body, self.chart)

    def sharp(self, alpha: FormField) -> MultiField:
        """pi#(alpha) for a degree-1 form with Poly coefficients."""
        _check_form("sharp", "alpha", alpha)
        if alpha.degree != 1 or alpha.chart != self.chart:
            raise ValueError("sharp expects a one-form on the same chart")
        return _sharp(self.chart, self.coeff_matrix(), alpha)

    def pairing(self, alpha: FormField, beta: FormField) -> MultiField:
        """pi(alpha, beta) as a degree-0 field."""
        val = apply_to_forms(self.body, [alpha, beta])
        return MultiField.function(self.chart, val)


def bivector_from_brackets(chart: Chart, entries: Dict[Tuple[int, int], Poly]) -> ComplexBivector:
    """Build pi from coordinate brackets {x_i, x_j} for i < j (0-based)."""
    return ComplexBivector(MultiField(chart, 2, entries))


# -- integrability ----------------------------------------------------------


def jacobi_residual(pi: ComplexBivector) -> MultiField:
    """[pi, pi]; vanishes exactly when pi is Poisson."""
    return schouten(pi.body, pi.body)


def pair_conditions(pi: ComplexBivector) -> Tuple[MultiField, MultiField]:
    """([pi1, pi2], [pi1, pi1] - [pi2, pi2]); both zero iff Poisson.

    Two kernel passes: one schouten for the first, one schouten_sum for the
    second.
    """
    pi1, pi2 = pi.pi1, pi.pi2
    return schouten(pi1, pi2), schouten_sum([(1, pi1, pi1), (-1, pi2, pi2)])


def jacobi_pde_residuals(pi: ComplexBivector) -> List[Tuple[Tuple[int, int, int], int, Poly]]:
    """Real/imaginary Jacobi PDE residuals per coordinate triple i<j<k.

    Entry ((i,j,k), s, residual) with s=1 the real equation and s=2 the
    imaginary one: the real and imaginary parts of the coordinate Jacobiator
    r = sum_l (A_il d_l A_jk + A_kl d_l A_ij + A_jl d_l A_ki) of the complex
    matrix A of pi, all triples in one poly_sums_of_products.  Each partial
    d_l A_bc is read from the partials table of pi's body, so it is taken
    once, and once for all the checks on pi.
    """
    chart = pi.chart
    n = chart.dim
    A = _part_matrix(pi.body, chart)
    dA = pi.body.partials
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    # d_l A_ki = -d_l A_ik
    sums = poly_sums_of_products(chart, [
        [(sign, A[a][l], dl[bc])
         for a, bc, sign in ((i, (j, k), 1), (k, (i, j), 1), (j, (i, k), -1))
         for l, dl in enumerate(dA) if bc in dl]
        for i, j, k in triples
    ])
    out: List[Tuple[Tuple[int, int, int], int, Poly]] = []
    for t, r in zip(triples, sums):
        out.append((t, 1, r.real_part()))
        out.append((t, 2, r.imag_part()))
    return out


def _part_matrix(part: MultiField, chart: Chart) -> List[List[Poly]]:
    """Full skew Poly matrix of a bivector, A[i][j] = part(dx_i, dx_j)."""
    n = chart.dim
    zero = Poly.zero(chart)
    A = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), p in part.comps.items():
        A[i][j] = p
        A[j][i] = -p
    return A


# -- brackets and Hamiltonian fields ----------------------------------------


def bracket_of_functions(pi: ComplexBivector, f: MultiField, g: MultiField) -> MultiField:
    """{f, g} = pi(T_C f, T_C g)."""
    if f.degree != 0 or g.degree != 0:
        raise ValueError("bracket_of_functions expects degree-0 fields")
    return pi.pairing(complex_differential(f), complex_differential(g))


def hamiltonian(pi: ComplexBivector, h: MultiField) -> MultiField:
    """X_h = pi#(T_C h), so that X_h(f) = {f, h}; zero iff h is a Casimir."""
    if h.degree != 0:
        raise ValueError("expected a degree-0 field")
    return pi.sharp(complex_differential(h))


def apply_vector(z: MultiField, f: MultiField) -> MultiField:
    """z(f) for a degree-1 field acting on a degree-0 field."""
    return MultiField.function(
        z.chart, contract_form(complex_differential(f), z).component(())
    )


def cotangent_bracket(pi: ComplexBivector, a: FormField, b: FormField) -> FormField:
    """[a, b]_pi = L_{pi#b} a - L_{pi#a} b - T_C pi(a, b).

    The orientation matches the sharp convention a(pi#b) = pi(a, b): exact
    one-forms satisfy [T_C f, T_C g]_pi = T_C {f, g}, and the sharp map is an
    anti-morphism, pi#[a, b]_pi = -[pi#a, pi#b].
    """
    _check_form("cotangent_bracket", "a", a)
    _check_form("cotangent_bracket", "b", b)
    if a.degree != 1 or b.degree != 1 or a.chart != pi.chart or b.chart != pi.chart:
        raise ValueError("cotangent_bracket expects one-forms on the chart of pi")
    return _bracket(pi.chart, pi.coeff_matrix(), a, b)


def _check_form(fn: str, name: str, value):
    """Refuse an argument that is not a FormField, naming it: a degree-1
    MultiField has the same components as a one-form but is not one."""
    if not isinstance(value, FormField):
        raise TypeError(f"{fn} expects a FormField for {name}, got {type(value).__name__}")


def _sharp(chart: Chart, M: List[List[Poly]], alpha: FormField) -> MultiField:
    """M#(alpha) with (M# alpha)_i = sum_j M[i][j] alpha_j; M need not be skew."""
    col = _matmul(chart, M, [[alpha.component((j,))] for j in range(chart.dim)])
    return MultiField(chart, 1, {(i,): row[0] for i, row in enumerate(col)})


def _matmul(chart: Chart, X: Sequence[Sequence[Poly]], Y: Sequence[Sequence[Poly]]) -> List[List[Poly]]:
    """X Y for matrices of Polys, every entry in one poly_sums_of_products."""
    cols = list(zip(*Y))
    flat = poly_sums_of_products(chart, [[(1, x, y) for x, y in zip(row, col)] for row in X for col in cols])
    return [flat[r * len(cols):(r + 1) * len(cols)] for r in range(len(X))]


def _bracket(chart: Chart, M: List[List[Poly]], a: FormField, b: FormField) -> FormField:
    """One-form bracket driven by a sharp matrix M (possibly non-skew):
    [a, b]_M = L_X a - L_Y b - T_C(a(X)) with X = M#b and Y = M#a, which
    Cartan's formula turns into i_X da - i_Y db - T_C(b(Y)); in coordinates

        [a, b]_k = sum_j (X_j (da)_jk - Y_j (db)_jk) - d_k (sum_j b_j Y_j).

    Two kernel passes: X and Y in one poly_sums_of_products, the n
    components and the scalar -b(Y) in a second.  da and db are read off
    the partials tables of a and b (d_complex), and d_k(-b(Y)) off the
    table of -b(Y) as a function (complex_differential).

    A form marked closed (see GradedField) has d = 0, so its d_complex is
    not taken.  For a closed a, X, which enters only i_X da, is not formed
    either; for a closed b, Y stays, as b(Y) needs it.  With a and b both
    closed the second pass forms only -b(Y), and the bracket is
    T_C(-b(Y)): two passes and one complex_differential, and the result is
    marked closed.
    """
    n = chart.dim
    a_closed = getattr(a, "_closed", False)
    XY = poly_sums_of_products(chart, [
        [(1, row[j], f[(j,)]) for j in range(n) if (j,) in f]
        for f in ((a.comps,) if a_closed else (b.comps, a.comps)) for row in M
    ])
    X, Y = XY[:-n], XY[-n:]
    sides = [(s, V, d_complex(form)) for s, V, form, closed in
             ((1, X, a, a_closed), (-1, Y, b, getattr(b, "_closed", False))) if not closed]
    groups: List[List[Tuple[int, Poly, Poly]]] = [[] for _ in range(n)] if sides else []
    for s, V, dform in sides:
        for (i, j), p in dform.comps.items():
            # i_V (dx_i ^ dx_j) = V_i dx_j - V_j dx_i
            groups[j].append((s, V[i], p))
            groups[i].append((-s, V[j], p))
    groups.append([(-1, bj, Y[j]) for (j,), bj in b.comps.items()])
    *rows, minus_pair = poly_sums_of_products(chart, groups)
    dpair = complex_differential(MultiField.function(chart, minus_pair))
    if not sides:
        return dpair
    d = dpair.comps
    return FormField(chart, 1, {(k,): r + d[(k,)] if (k,) in d else r for k, r in enumerate(rows)})


# -- constructors ------------------------------------------------------------


def construct(kind: str, *args) -> ComplexBivector:
    """Named constructors: complexify, twist, diagonal, conjugate, two_param,
    nijenhuis."""
    if kind == "complexify":
        (sigma,) = args
        return ComplexBivector(_real_body(sigma))
    if kind == "twist":
        (sigma,) = args
        return ComplexBivector(_real_body(sigma).scale(GS_I))
    if kind == "diagonal":
        (sigma,) = args
        body = _real_body(sigma)
        return ComplexBivector(body + body.scale(GS_I))
    if kind == "conjugate":
        (pi,) = args
        return ComplexBivector(pi.body.conjugate())
    if kind == "two_param":
        pi1, pi2, mu, lam = args
        body = _real_body(pi1).scale(mu) + _real_body(pi2).scale(GS_I * lam)
        return ComplexBivector(body)
    if kind == "nijenhuis":
        sigma, N = args
        body = _real_body(sigma)
        NA = _nijenhuis_matrix(body, N)
        n = body.chart.dim
        comps: Dict[Tuple[int, int], Poly] = {}
        for i in range(n):
            for j in range(i + 1, n):
                if not (NA[i][j] + NA[j][i]).is_zero():
                    raise ValueError(
                        "N o sigma# is not skew: (sigma, N) is not a compatible "
                        "Poisson-Nijenhuis pair"
                    )
                comps[(i, j)] = NA[i][j]
        sigmaN = MultiField(body.chart, 2, comps)
        return ComplexBivector(body + sigmaN.scale(GS_I))
    raise ValueError(f"unknown constructor kind {kind!r}")


def _real_body(sigma) -> MultiField:
    body = sigma.body if isinstance(sigma, ComplexBivector) else sigma
    re, im = decompose(body)
    if not im.is_zero():
        raise ValueError("constructor expects a real bivector")
    return re


def _nijenhuis_matrix(body: MultiField, N: Sequence[Sequence[Poly]]) -> List[List[Poly]]:
    """Matrix of (N o sigma#): rows N applied to the columns of A."""
    chart = body.chart
    n = chart.dim
    if len(N) != n or any(len(row) != n for row in N):
        raise ValueError(f"N must be a {n}x{n} matrix of Polys")
    return _matmul(chart, N, _part_matrix(body, chart))


def nijenhuis_residuals(sigma, N) -> Tuple[List[List[Poly]], List[FormField]]:
    """Compatibility residuals for a would-be Poisson-Nijenhuis pair.

    First: the matrix of sigma# N* - N sigma#.  Second: the one-form bracket
    residuals [a,b]_{sigma_N} - ([N*a,b]_sigma + [a,N*b]_sigma - N*[a,b]_sigma)
    on all coordinate one-form pairs (sufficient by bilinearity and Leibniz).
    """
    body = _real_body(sigma)
    chart = body.chart
    n = chart.dim
    A = _part_matrix(body, chart)
    # sigma# N* has matrix A N^T = -(N A)^T, as A is skew; N sigma# has
    # matrix N A
    NA = _nijenhuis_matrix(body, N)
    first = [[-(x + y) for x, y in zip(c, r)] for c, r in zip(zip(*NA), NA)]

    def nstar(alpha: FormField) -> FormField:
        # (N* a)_j = sum_i a_i N_ij
        (row,) = _matmul(chart, [[alpha.component((i,)) for i in range(n)]], N)
        return FormField(chart, 1, {(j,): p for j, p in enumerate(row)})

    # the coordinate forms dx_i, built as T_C x_i so that they are marked closed
    dx = [complex_differential(MultiField.function(chart, Poly.var(chart, v))) for v in chart.vars]
    second: List[FormField] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = dx[i], dx[j]
            lhs = _bracket(chart, NA, a, b)
            rhs = (
                _bracket(chart, A, nstar(a), b)
                + _bracket(chart, A, a, nstar(b))
                - nstar(_bracket(chart, A, a, b))
            )
            second.append(lhs - rhs)
    return first, second

