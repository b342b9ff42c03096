"""Normal-form machinery on vector-bundle charts R^b x R^f with b, f > 0.

The submanifold N is always the zero section {fiber vars = 0}; _on_N maps a
point of the bundle chart to the point of N under it.  The tubular embedding
is the identity on the bundle chart, so Moser averaging of a form is the exact
weight-wise integral: each monomial is scaled by 1 / (fiber degree of its
coefficient + number of fiber differentials).

The sampled checks make one pass per point.  mixed_check evaluates pi once
on N, to the integer rows of its matrix there, reads the direct-sum rank
off them (one echelon) and keeps them in its report.  splitting_check is
the normal-form verdict: it runs mixed_check first, keeps its report, and
compares points only along a mixed N whose section is in the graph of pi.
It reads the fiber form and pi_N off the kept rows, so pi is evaluated on N
once per point, and evaluates pi once more at the point itself, where gr(pi)
must equal the local model e^B p^! gr(pi_N): on integer rows, pi_N is one
eliminate (_pi_N) and the model one echelon (_model), besides the echelon
of gr(pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .bivector import ComplexBivector
from .fields import FormField, MultiField, d_complex, recompose
from .lagrangian import Lagrangian, _fused, _graph, _lagrangian, _times, bivector_of_graph
from .poly import Chart, Poly, poly_subst_zero
from .pointwise import _require_points, _rows_at
from .scalars import GS_I, GS_ONE, GaussScalar

F0 = Fraction(0)


@dataclass(frozen=True)
class BundleChart:
    base_vars: Tuple[str, ...]
    fiber_vars: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_vars", tuple(self.base_vars))
        object.__setattr__(self, "fiber_vars", tuple(self.fiber_vars))
        if set(self.base_vars) & set(self.fiber_vars):
            raise ValueError("base and fiber variables must be disjoint")
        if not self.base_vars:
            raise ValueError("bundle base is empty: N would be a point, which has no chart")
        if not self.fiber_vars:
            raise ValueError("bundle fiber is empty: N would be the whole chart, where every "
                             "splitting condition holds vacuously")

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


def _on_N(bundle: BundleChart, point: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """The point of N under a point of the bundle chart: its base coordinates,
    and 0 for every fiber coordinate; a point of the base alone will do."""
    return {**{v: Fraction(point[v]) for v in bundle.base_vars},
            **dict.fromkeys(bundle.fiber_vars, F0)}


# the integer rows (re, im, d) of a skew matrix (re + i im)/d
Rows = Tuple[List[List[int]], List[List[int]], int]


def _fiber_block(M: List[List], b: int) -> List[List]:
    """The fiber-by-fiber block of a matrix on a bundle chart with b base vars."""
    return [r[b:] for r in M[b:]]


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
    # (the point of N under each sample point, the rows of pi there), which
    # splitting_check reads; neither compared nor printed
    rows_on_N: Tuple[Tuple[Dict[str, Fraction], Rows], ...] = field(compare=False, repr=False)

    @property
    def direct_sum_ok(self) -> bool:
        return not self.direct_sum_points

    @property
    def mixed(self) -> bool:
        return self.pi2_annihilator_zero and self.direct_sum_ok


def mixed_check(
    pi: ComplexBivector, bundle: BundleChart, sample_points_on_N: Sequence[Mapping[str, Fraction]],
) -> MixedReport:
    """Mixed-submanifold conditions for N = {fiber vars = 0}.

    pi2(Ann TN) = 0 is a polynomial identity after restricting to N; the
    direct-sum condition is checked exactly at the points of N under the
    sample points, which may be points of the bundle chart or of the base.
    """
    chart = bundle.chart
    if pi.chart != chart:
        raise ValueError("bivector must live on the bundle chart")
    sample_points_on_N = _require_points(sample_points_on_N)
    b, f = bundle.b, bundle.f
    # pi2(Ann TN)|_N = 0: the fiber rows of pi's matrix are real on N; the
    # components (i, j), i < j, in those rows are the ones with j a fiber index
    ann_zero = all(
        poly_subst_zero(p, bundle.fiber_vars).is_real()
        for (_, j), p in pi.body.comps.items() if j >= b
    )
    rows_on_N = tuple((q, _rows_at(pi.body, q))
                      for q in (_on_N(bundle, p) for p in sample_points_on_N))
    # pi1(Ann TN) + TN = TM, directly and with trivial overlap: TN spans the
    # base coordinates, so it holds exactly when the fiber block of pi1# on
    # the d(fiber_a) is invertible.  Where pi2(Ann TN) = 0 that block is
    # pi's, so the complex cosymplectic condition pi(Ann T_CN) + T_CN = T_CM
    # is the same one and needs no echelon of its own
    return MixedReport(
        pi2_annihilator_zero=ann_zero,
        direct_sum_points=tuple(tuple(sorted(q.items())) for q, (Are, _, _) in rows_on_N
                                if linalg.rank(_fiber_block(Are, b)) != f),
        rows_on_N=rows_on_N,
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


@dataclass(frozen=True)
class LocalModelResult:
    lagrangian: Lagrangian
    is_graph: bool
    bivector_matrix: Optional[List[List[GaussScalar]]]
    model_formula_ok: Optional[bool]  # pi_N + (sigma_C)^{-1} check at zero section


def _model(bundle: BundleChart, AN: Rows, B: Rows) -> Lagrangian:
    """e^B p^! gr(pi_N), one echelon, for the rows AN = (Nre + i Nim)/D of pi_N
    and B = (Bre + i Bim)/d: p^! gr(pi_N) is spanned by X = (pi_N e_k, 0) with
    eta = e_k and by X = e_j (j a fiber index) with eta = 0, and e^B adds
    i_X B = -B X to the cotangent: rows d D (X, e_k - B X) and d (e_j, -B e_j)."""
    (Nre, Nim, D), (Bre, Bim, d) = AN, B
    b, n = bundle.b, len(Bre)
    fiber, M = [0] * (n - b), _fused(Bre, Bim)
    re, im = [], []
    for k in range(b):
        # D pi_N e_k is minus row k of Nre + i Nim by skewness, fused as [re | im]
        X = [-x for x in Nre[k]] + fiber + [-y for y in Nim[k]] + fiber
        BXre, BXim = _times(M, X)
        re.append([d * x for x in X[:n]] + [(d * D if t == k else 0) - y for t, y in enumerate(BXre)])
        im.append([d * y for y in X[n:]] + [-y for y in BXim])
    # -B e_j is row j of B by skewness
    re += [[d if t == j else 0 for t in range(n)] + Bre[j] for j in range(b, n)]
    im += [[0] * n + Bim[j] for j in range(b, n)]
    return _lagrangian(n, linalg.echelon(re, im)[0])


def local_model_at(
    pi_N: ComplexBivector, sigma: FormField, bundle: BundleChart, point: Mapping[str, Fraction]
) -> LocalModelResult:
    """L(sigma) = e^sigma p^! gr(pi_N) at a point of the bundle chart, for
    sigma a two-form on the bundle chart that extends the fiber form.

    On the zero section its bivector must be pi_N + (sigma_C)^{-1}, which is
    -B_ff^{-1} on the fiber block B_ff of B.  That bivector exists exactly
    when the model of B_ff alone (B with its other blocks zero) is a graph,
    and then that model is its graph: both hold (pi_N e_k, 0) + (e_k, 0) and,
    for each fiber vector Y, (0, Y) + (0, -B_ff Y).  So the formula holds
    when L is that model."""
    # the rows are read by position, so the charts must match, order too
    if pi_N.chart != bundle.base_chart:
        raise ValueError("pi_N must live on the base chart")
    if sigma.chart != bundle.chart:
        raise ValueError("form must live on the bundle chart")
    b, n = bundle.b, bundle.b + bundle.f
    AN = _rows_at(pi_N.body, point)  # pi_N reads only the base coordinates
    B = _rows_at(sigma, point)
    L = _model(bundle, AN, B)
    mat = bivector_of_graph(L)
    formula_ok = None
    if mat is not None and all(point[v] == 0 for v in bundle.fiber_vars):
        fiber_only = [[[0] * b + r[b:] if i >= b else [0] * n for i, r in enumerate(M)] for M in B[:2]]
        formula_ok = L == _model(bundle, AN, (*fiber_only, B[2]))
    return LocalModelResult(L, mat is not None, mat, formula_ok)


# -- splitting check ---------------------------------------------------------------


@dataclass(frozen=True)
class SplittingReport:
    mixed: MixedReport
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
            self.mixed.mixed
            and self.section_in_graph
            and self.vanishes_on_N
            and self.euler_linear_ok
            and bool(self.fiber_form_ok)
            and all(ok for _, ok in self.point_results)
        )


def induced_base_bivector_at(
    pi: ComplexBivector, bundle: BundleChart, base_pt: Mapping[str, Fraction]
) -> Optional[List[List[GaussScalar]]]:
    """pi_N at a base point: backward image of gr(pi)|_N along the inclusion."""
    AN = _pi_N(bundle, _rows_at(pi.body, _on_N(bundle, base_pt)))
    return None if AN is None else [linalg._scalars((r, i, AN[2])) for r, i in zip(AN[0], AN[1])]


def _pi_N(bundle: BundleChart, A: Rows) -> Optional[Rows]:
    """The rows of pi_N off the rows A = (Are + i Aim)/d of pi at a point of N:
    the backward image of gr(pi) along the inclusion, {xi_base + (A xi)_base :
    (A xi)_fiber = 0}, is one eliminate over xi = d e_k, with heads (A xi)_fiber
    and tails [xi_base | (A xi)_base].  None (no graph) if a tail's covector half
    is zero; else tail k is d_k (e_k, pi_N e_k), over the lcm D of the d_k."""
    Are, Aim, d = A
    b = bundle.b
    # A (d e_k) is column k of Are + i Aim, minus row k by skewness; row k of
    # pi_N is likewise minus the tangent half of tail k, over d_k
    re = [[-x for x in r[b:]] + [d if t == k else 0 for t in range(b)] + [-x for x in r[:b]]
          for k, r in enumerate(Are)]
    im = [[-y for y in r[b:]] + [0] * b + [-y for y in r[:b]] for r in Aim]
    tails = linalg.eliminate(len(Are) - b, re, im)
    if not all(any(tre[:b]) for tre, _, _ in tails):
        return None
    D = lcm(*(dk for _, _, dk in tails))
    return ([[-x * (D // dk) for x in tre[b:]] for tre, _, dk in tails],
            [[-y * (D // dk) for y in tim[b:]] for _, tim, dk in tails], D)


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

    N must be mixed: mixed_check runs first on the points and its report is
    kept.  Points are compared only along a mixed N whose section is in the
    graph of pi, and only such a check passes.
    """
    points = _require_points(points)
    # called by its module name, which a tracer may rebind
    mixed = mixed_check(pi, bundle, points)
    X, xi1, xi2 = epsilon
    xi = recompose(xi1, xi2)
    sharp_xi = pi.sharp(xi)
    section_in_graph = (sharp_xi - X).is_zero()

    vanish = all(
        poly_subst_zero(c, bundle.fiber_vars).is_zero()
        for fld in (X, xi1, xi2)
        for c in fld.comps.values()
    )

    euler_ok, euler_warn = _euler_linear_check(X, bundle)

    # B, omega and the points stay empty unless N is mixed, the section is in
    # the graph and d xi1, d xi2 both have Moser averages
    B = omega = fiber_ok = None
    results = []
    if mixed.mixed and section_in_graph:
        try:
            B, omega = (moser_average(d_complex(form), bundle) for form in (xi1, xi2))
        except WeightZeroError:
            pass
    if B is not None:
        Bw = B + omega.scale(GS_I)
        fiber_ok = True
        for p, (on_N, A) in zip(points, mixed.rows_on_N):
            pt = {k: Fraction(v) for k, v in p.items()}
            fiber_ok = fiber_ok and _fiber_form_check(bundle, A, _rows_at(Bw, on_N))
            AN = _pi_N(bundle, A)
            ok = AN is not None and (
                _model(bundle, AN, _rows_at(Bw, pt)) == _graph(*_rows_at(pi.body, pt), "bivector"))
            results.append((tuple(sorted(pt.items())), ok))
    return SplittingReport(mixed, section_in_graph, vanish, euler_ok, euler_warn,
                           B, omega, fiber_ok, tuple(results))


def _euler_linear_check(X: MultiField, bundle: BundleChart) -> Tuple[bool, bool]:
    """Linear part of X at N must be the fiberwise Euler field, read off the
    fiber degree of X's terms: degree 0 fails, the degree-1 terms of fiber
    component j must be exactly {fiber variable j: 1} (base components only
    shift along TN and are free), and degree 2 or more sets the warning."""
    b, n = bundle.b, bundle.b + bundle.f
    ok, higher = True, False
    for j in range(n):
        linear = {}
        for exp, c in X.component((j,)).terms.items():
            degree = sum(exp[b:])
            if degree == 0:
                ok = False
            elif degree == 1:
                linear[exp] = c
            else:
                higher = True
        if j >= b and linear != {tuple(int(t == j) for t in range(n)): GS_ONE}:
            ok = False
    return ok, higher


def _fiber_form_check(bundle: BundleChart, A: Rows, M: Rows) -> bool:
    """At a point of N, with A the rows of pi and M those of Bw there: the
    fiber block of Bw equals the induced fiber form Omega~ with
    Omega~(pi# z1, pi# z2) = pi(z1, z2) on fiber covectors.

    The fiber covectors zeta_c with pi# zeta_c = d/d(fiber_c), the columns of
    Z, solve A[:, fiber] Z = [0; Id], whose fiber rows say A_ff Z = Id; so Z
    is unique and pi(zeta_a, zeta_c) = (Z^T A_ff Z)[a][c] = Z[c][a].  The
    check M_ff = Z^T, with M_ff skew, is Z = -M_ff: A[:, fiber] times row c
    of M_ff is the unit vector of fiber_c."""
    b, n = bundle.b, bundle.b + bundle.f
    Af = _fused([r[b:] for r in A[0]], [r[b:] for r in A[1]])
    Mre, Mim = _fiber_block(M[0], b), _fiber_block(M[1], b)
    return all(
        _times(Af, Mre[c] + Mim[c]) == ([A[2] * M[2] if i == b + c else 0 for i in range(n)], [0] * n)
        for c in range(bundle.f)
    )


def extension_check(sigma: FormField, bundle: BundleChart, points) -> bool:
    """The fiber block of sigma, a two-form on the bundle chart extending the
    fiber form, is nondegenerate on the zero section."""
    if sigma.chart != bundle.chart:
        raise ValueError("form must live on the bundle chart")
    b, f = bundle.b, bundle.f
    rows = (_rows_at(sigma, _on_N(bundle, p)) for p in _require_points(points))
    return all(linalg.rank(_fiber_block(re, b), _fiber_block(im, b)) == f for re, im, _ in rows)
