"""Normal-form machinery on vector-bundle charts R^b x R^f.

The submanifold N is always the zero section {fiber vars = 0}.  The tubular
embedding is the identity on the bundle chart, so Moser averaging of a form
is the exact weight-wise integral: each monomial is scaled by 1 / (fiber
degree of its coefficient + number of fiber differentials).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .bivector import ComplexBivector, _part_matrix
from .fields import FormField, MultiField, d_complex
from .lagrangian import (
    Lagrangian,
    bivector_of_graph,
    graph,
    images,
    transform,
)
from .poly import Chart, Poly, poly_eval, poly_partial, poly_subst_zero
from .pointwise import bivector_at, complex_matrix
from .scalars import GS_ONE, GS_ZERO, GaussScalar

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class BundleChart:
    base_vars: Tuple[str, ...]
    fiber_vars: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_vars", tuple(self.base_vars))
        object.__setattr__(self, "fiber_vars", tuple(self.fiber_vars))
        if set(self.base_vars) & set(self.fiber_vars):
            raise ValueError("base and fiber variables must be disjoint")

    @property
    def chart(self) -> Chart:
        return Chart(self.base_vars + self.fiber_vars)

    @property
    def base_chart(self) -> Chart:
        return Chart(self.base_vars)

    @property
    def b(self) -> int:
        return len(self.base_vars)

    @property
    def f(self) -> int:
        return len(self.fiber_vars)


@dataclass(frozen=True)
class Extension:
    """A degree-2 form on the bundle chart extending the fiber form."""

    form: FormField


class WeightZeroError(ValueError):
    def __init__(self, idx, exp):
        super().__init__(
            f"monomial with fiber-weight 0 (component {idx}, exponent {exp}): "
            "the form does not vanish on the zero section"
        )
        self.idx = idx
        self.exp = exp


# -- mixed submanifold check ---------------------------------------------------


@dataclass(frozen=True)
class MixedReport:
    pi2_annihilator_zero: bool
    direct_sum_points: Tuple[Tuple[Tuple[str, Fraction], ...], ...]
    direct_sum_ok: bool
    complex_cosymplectic_ok: bool

    @property
    def mixed(self) -> bool:
        return self.pi2_annihilator_zero and self.direct_sum_ok


def mixed_check(
    pi: ComplexBivector, bundle: BundleChart, sample_points_on_N: Sequence[Mapping[str, Fraction]]
) -> MixedReport:
    """Mixed-submanifold conditions for N = {fiber vars = 0}.

    pi2(Ann TN) = 0 is a polynomial identity after restricting to N; the
    direct-sum conditions are checked exactly at the sampled points of N.
    """
    chart = bundle.chart
    if pi.chart != chart:
        raise ValueError("bivector must live on the bundle chart")
    b, f = bundle.b, bundle.f
    n = b + f
    fiber_idx = list(range(b, n))
    # pi2(Ann TN)|_N = 0: fiber rows of the pi2 matrix vanish on N
    A2sym = _part_matrix(pi.pi2, chart)
    ann_zero = all(
        poly_subst_zero(A2sym[a][j], bundle.fiber_vars).is_zero()
        for a in fiber_idx
        for j in range(n)
    )
    pts = [dict(p, **{v: F0 for v in bundle.fiber_vars}) for p in sample_points_on_N]
    ds_ok = True
    cc_ok = True
    failures = []
    for pt in pts:
        A1, A2 = bivector_at(pi, pt)
        # real condition: pi1(Ann TN) + TN = TM, directly and with trivial overlap
        img = [[A1[i][a] for i in range(n)] for a in fiber_idx]  # pi1# d(fiber_a)
        tn = [[F1 if i == j else F0 for i in range(n)] for j in range(b)]
        if linalg.rank(img) != f or linalg.rank(img + tn) != n:
            ds_ok = False
            failures.append(tuple(sorted(pt.items())))
        # complex cosymplectic: pi(Ann T_CN) + T_CN = T_CM
        A = complex_matrix(A1, A2)
        imgc = [[A[i][a] for i in range(n)] for a in fiber_idx]
        tnc = [
            [GS_ONE if i == j else GS_ZERO for i in range(n)] for j in range(b)
        ]
        if linalg.rank(imgc) != f or linalg.rank(imgc + tnc) != n:
            cc_ok = False
    return MixedReport(
        pi2_annihilator_zero=ann_zero,
        direct_sum_points=tuple(failures),
        direct_sum_ok=ds_ok,
        complex_cosymplectic_ok=cc_ok,
    )


# -- Moser averaging ------------------------------------------------------------


def moser_average(beta: FormField, bundle: BundleChart) -> FormField:
    """Scale each monomial by the reciprocal of its fiber weight.

    weight = (fiber degree of the coefficient monomial)
           + (number of fiber differentials in the component index).
    This is the exact value of the radial averaging integral; weight 0 means
    the form does not vanish on the zero section and is refused.
    """
    chart = bundle.chart
    if beta.chart != chart:
        raise ValueError("form must live on the bundle chart")
    fiber_positions = set(range(bundle.b, bundle.b + bundle.f))
    out: Dict[Tuple[int, ...], Poly] = {}
    for idx, p in beta.comps.items():
        n_fiber_diff = sum(1 for j in idx if j in fiber_positions)
        terms = {}
        for exp, c in p.terms.items():
            w = n_fiber_diff + sum(exp[j] for j in fiber_positions)
            if w == 0:
                raise WeightZeroError(idx, exp)
            terms[exp] = c * Fraction(1, w)
        out[idx] = Poly(chart, terms)
    return FormField(chart, beta.degree, out)


# -- local model -----------------------------------------------------------------


def form_matrix_at(form: FormField, point) -> List[List[GaussScalar]]:
    """Skew GaussScalar matrix of a degree-2 form at a point."""
    chart = form.chart
    n = chart.dim
    M = [[GS_ZERO] * n for _ in range(n)]
    for (i, j), p in form.comps.items():
        v = poly_eval(p, point)
        M[i][j] = v
        M[j][i] = -v
    return M


def inverse_bivector_matrix(B: List[List[GaussScalar]]) -> List[List[GaussScalar]]:
    """Coefficient matrix of the bivector inverse to the two-form B.

    With the package's sharp convention, sharp(A) o flat(B) = Id forces
    A = -B^{-1}.
    """
    inv = linalg.solve(B, linalg.identity(len(B), GS_ONE, GS_ZERO), len(B), GS_ZERO)
    if inv is None:
        raise ValueError("two-form is degenerate, no inverse bivector")
    return linalg.neg_matrix(inv)


def projection_matrix(bundle: BundleChart) -> List[List[GaussScalar]]:
    """Matrix of the bundle projection differential, b x (b+f)."""
    b, n = bundle.b, bundle.b + bundle.f
    return [
        [GS_ONE if i == j else GS_ZERO for j in range(n)] for i in range(b)
    ]


@dataclass(frozen=True)
class LocalModelResult:
    lagrangian: Lagrangian
    is_graph: bool
    bivector_matrix: Optional[List[List[GaussScalar]]]
    model_formula_ok: Optional[bool]  # pi_N + (sigma_C)^{-1} check at zero section


def local_model_at(
    pi_N: ComplexBivector, ext: Extension, bundle: BundleChart, point: Mapping[str, Fraction]
) -> LocalModelResult:
    """L(sigma~) = e^{sigma~} p^! gr(pi_N) at a point of the bundle chart."""
    base_pt = {v: point[v] for v in bundle.base_vars}
    A1, A2 = bivector_at(pi_N, base_pt)
    LN = graph(complex_matrix(A1, A2), "bivector")
    P = projection_matrix(bundle)
    pulled = images("backward", P, LN)
    B = form_matrix_at(ext.form, point)
    L = transform("b_field", B, pulled)
    mat = bivector_of_graph(L)
    is_graph = mat is not None
    formula_ok = None
    if all(point[v] == 0 for v in bundle.fiber_vars) and mat is not None:
        b, f = bundle.b, bundle.f
        n = b + f
        fiber_block = [[B[b + a][b + c] for c in range(f)] for a in range(f)]
        try:
            inv = inverse_bivector_matrix(fiber_block)
        except ValueError:
            inv = None
        if inv is None:
            formula_ok = False
        else:
            expected = [[GS_ZERO] * n for _ in range(n)]
            AN = complex_matrix(A1, A2)
            for i in range(b):
                for j in range(b):
                    expected[i][j] = AN[i][j]
            for a in range(f):
                for c in range(f):
                    expected[b + a][b + c] = inv[a][c]
            formula_ok = mat == expected
    return LocalModelResult(L, is_graph, mat, formula_ok)


# -- splitting check ---------------------------------------------------------------


@dataclass(frozen=True)
class SplittingReport:
    section_in_graph: bool
    vanishes_on_N: bool
    euler_linear_ok: bool
    euler_higher_order_warning: bool
    B: Optional[FormField]
    omega: Optional[FormField]
    fiber_form_ok: Optional[bool]
    point_results: Tuple[Tuple[Tuple[Tuple[str, Fraction], ...], bool], ...]

    @property
    def passed(self) -> bool:
        return (
            self.section_in_graph
            and self.vanishes_on_N
            and self.euler_linear_ok
            and bool(self.fiber_form_ok)
            and all(ok for _, ok in self.point_results)
        )


def induced_base_bivector_at(
    pi: ComplexBivector, bundle: BundleChart, base_pt: Mapping[str, Fraction]
) -> Optional[List[List[GaussScalar]]]:
    """pi_N at a base point: backward image of gr(pi)|_N along the inclusion."""
    b, f = bundle.b, bundle.f
    n = b + f
    pt = dict(base_pt, **{v: F0 for v in bundle.fiber_vars})
    A1, A2 = bivector_at(pi, pt)
    L = graph(complex_matrix(A1, A2), "bivector")
    incl = [
        [GS_ONE if i == j else GS_ZERO for j in range(b)] for i in range(n)
    ]
    return bivector_of_graph(images("backward", incl, L))


def splitting_check(
    pi: ComplexBivector,
    bundle: BundleChart,
    epsilon: Tuple[MultiField, FormField, FormField],
    points: Sequence[Mapping[str, Fraction]],
) -> SplittingReport:
    """Verify the Moser-averaged splitting at sample points.

    epsilon = (X, xi1, xi2) with X + xi1 + i xi2 a section of gr(pi);
    B = average(d xi1), omega = average(d xi2); at each point p the model
    e^{B+i omega} p^! gr(pi_N) must equal gr(pi), and on the zero section the
    fiber block of B + i omega must reproduce Omega~ with
    Omega~(pi# z1, pi# z2) = pi(z1, z2) on Ann TN.
    """
    X, xi1, xi2 = epsilon
    chart = bundle.chart
    from .fields import recompose
    from .scalars import GS_I

    xi = recompose(xi1, xi2)
    sharp_xi = pi.sharp(xi)
    section_in_graph = (sharp_xi - X).is_zero()

    vanish = all(
        poly_subst_zero(c, bundle.fiber_vars).is_zero()
        for fld in (X, xi1, xi2)
        for c in fld.comps.values()
    )

    euler_ok, euler_warn = _euler_linear_check(X, bundle)

    if not section_in_graph:
        return SplittingReport(False, vanish, euler_ok, euler_warn, None, None, None, ())

    try:
        B = moser_average(d_complex(xi1), bundle)
        omega = moser_average(d_complex(xi2), bundle)
    except WeightZeroError:
        return SplittingReport(section_in_graph, vanish, euler_ok, euler_warn,
                               None, None, None, ())
    Bw = B + omega.scale(GS_I)
    ext = Extension(Bw)

    fiber_ok = _fiber_form_check(pi, bundle, Bw, points)

    results = []
    for pt in points:
        pt = {k: Fraction(v) for k, v in pt.items()}
        base_pt = {v: pt[v] for v in bundle.base_vars}
        AN = induced_base_bivector_at(pi, bundle, base_pt)
        ok = False
        if AN is not None:
            LN = graph(AN, "bivector")
            pulled = images("backward", projection_matrix(bundle), LN)
            model = transform("b_field", form_matrix_at(Bw, pt), pulled)
            A1, A2 = bivector_at(pi, pt)
            ok = model == graph(complex_matrix(A1, A2), "bivector")
        results.append((tuple(sorted(pt.items())), ok))
    return SplittingReport(
        section_in_graph, vanish, euler_ok, euler_warn, B, omega, fiber_ok,
        tuple(results),
    )


def _euler_linear_check(X: MultiField, bundle: BundleChart) -> Tuple[bool, bool]:
    """Linear part of X at N must be the fiberwise Euler field."""
    chart = bundle.chart
    ok = True
    higher = False
    fiber_set = set(bundle.fiber_vars)
    for j, name in enumerate(chart.vars):
        comp = X.component((j,))
        if not poly_subst_zero(comp, bundle.fiber_vars).is_zero():
            ok = False
        if name in fiber_set:
            # normal-bundle linearization: fiber components linearize to the
            # Euler field; base components only shift along TN and are free
            for fv in bundle.fiber_vars:
                d = poly_subst_zero(poly_partial(comp, fv), bundle.fiber_vars)
                expect = Poly.const(chart, 1 if name == fv else 0)
                if d != expect:
                    ok = False
        # flag genuine higher-order fiber terms
        for exp in comp.terms:
            fdeg = sum(
                exp[chart.index(v)] for v in bundle.fiber_vars
            )
            if fdeg >= 2:
                higher = True
    return ok, higher


def _fiber_form_check(pi, bundle: BundleChart, Bw: FormField, points) -> bool:
    """Fiber block of Bw on the zero section equals the induced fiber form
    Omega~ with Omega~(pi# z1, pi# z2) = pi(z1, z2) on fiber covectors."""
    b, f = bundle.b, bundle.f
    n = b + f
    base_pts = [{v: Fraction(p[v]) for v in bundle.base_vars} for p in points]
    for bp in base_pts:
        pt = dict(bp, **{v: F0 for v in bundle.fiber_vars})
        A1, A2 = bivector_at(pi, pt)
        A = complex_matrix(A1, A2)
        M = form_matrix_at(Bw, pt)
        # solve pi# zeta_a = d/d(fiber_a) with zeta in (Ann TN)_C = fiber
        # covectors, all a at once: the columns of Z
        units = [r[b:] for r in linalg.identity(n, GS_ONE, GS_ZERO)]
        Z = linalg.solve([r[b:] for r in A], units, f, GS_ZERO)
        if Z is None:
            return False
        # pi(zeta_a, zeta_c) = (Z^T A_ff Z)[a][c]
        fiber_pi = linalg.matmul(linalg.transpose(Z), linalg.matmul([r[b:] for r in A[b:]], Z))
        if [r[b:] for r in M[b:]] != fiber_pi:
            return False
    return True


def extension_check(ext: Extension, bundle: BundleChart, points) -> bool:
    """Fiber block of the extension is nondegenerate on the zero section."""
    b, f = bundle.b, bundle.f
    for p in points:
        pt = dict({v: Fraction(p[v]) for v in bundle.base_vars},
                  **{v: F0 for v in bundle.fiber_vars})
        M = form_matrix_at(ext.form, pt)
        block = [[M[b + a][b + c] for c in range(f)] for a in range(f)]
        if linalg.rank(block) != f:
            return False
    return True
