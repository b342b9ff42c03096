"""Pointwise evaluation of symbolic Poisson data into Dirac linear algebra.

Rank profiles, the A_pi distribution, leafwise presymplectic forms, the
generalized complex matrix of a real-index-zero structure, and the
tilde-reconstruction check.  All points are rational; all verdicts exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from . import linalg
from .bivector import ComplexBivector
from .fields import MultiField, schouten
from .lagrangian import (
    Lagrangian,
    Subspace,
    graph,
    hat,
    lagrangian_from_range_form,
    real_points,
    real_projection,
    tilde,
    two_form_on_range,
)
from .poly import Chart, poly_eval
from .scalars import GS_ONE, GS_ZERO, GaussScalar

F0 = Fraction(0)
F1 = Fraction(1)

Point = Mapping[str, Fraction]


# -- deterministic sampling --------------------------------------------------

# fixed nonzero rational values cycled through coordinates; chosen so that the
# sparse polynomial examples in scope stay at generic rank
_GRID_VALUES = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(2),
    Fraction(-1),
    Fraction(3, 2),
    Fraction(1, 4),
    Fraction(-2),
    Fraction(5, 3),
    Fraction(-3, 4),
    Fraction(3),
    Fraction(-1, 5),
    Fraction(7, 2),
    Fraction(2, 5),
    Fraction(-5, 2),
    Fraction(1, 3),
    Fraction(4),
    Fraction(-2, 3),
    Fraction(5, 4),
    Fraction(-4, 5),
]


def grid_points(chart: Chart, count: int = 20) -> List[Dict[str, Fraction]]:
    """Deterministic rational sample grid with all-nonzero coordinates."""
    pts = []
    L = len(_GRID_VALUES)
    for k in range(count):
        pts.append(
            {
                name: _GRID_VALUES[(k + 3 * j * (k + 1) + j) % L]
                for j, name in enumerate(chart.vars)
            }
        )
    return pts


# -- pointwise matrices ------------------------------------------------------


def bivector_at(pi: ComplexBivector, point: Point) -> Tuple[List[List[Fraction]], List[List[Fraction]]]:
    """Exact skew matrices (A1, A2) of pi1, pi2 at a rational point."""
    n = pi.chart.dim
    A1 = [[F0] * n for _ in range(n)]
    A2 = [[F0] * n for _ in range(n)]
    for (i, j), p in pi.body.comps.items():
        v = poly_eval(p, point)
        re, im = v.re, v.im
        A1[i][j], A1[j][i] = re, -re
        A2[i][j], A2[j][i] = im, -im
    return A1, A2


def complex_matrix(A1, A2) -> List[List[GaussScalar]]:
    n = len(A1)
    return [[GaussScalar.of(A1[i][j], A2[i][j]) for j in range(n)] for i in range(n)]


def graph_at(pi: ComplexBivector, point: Point) -> Lagrangian:
    A1, A2 = bivector_at(pi, point)
    return graph(complex_matrix(A1, A2), "bivector")


# -- rank profiles -----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    point: Tuple[Tuple[str, Fraction], ...]
    dim_E: int
    dim_Delta: int
    dim_D: int
    real_index: int
    order: int
    flags: Dict[str, bool] = field(default_factory=dict, compare=False)


def rank_profile(pi: ComplexBivector, point: Point) -> RankProfile:
    A1, A2 = bivector_at(pi, point)
    A = complex_matrix(A1, A2)
    E = Subspace(len(A), A, is_complex=True)  # row span = column span by skewness
    delta = real_points(E)
    D = real_projection(E)
    real_index = len(A2) - linalg.rank(A2)
    prof = RankProfile(
        point=tuple(sorted(point.items())),
        dim_E=E.dim,
        dim_Delta=delta.dim,
        dim_D=D.dim,
        real_index=real_index,
        order=D.dim,
        flags={"quasi_real_sample": delta.dim == D.dim},
    )
    return prof


def profile_sample(pi: ComplexBivector, points: Sequence[Point]) -> Tuple[List[RankProfile], Dict[str, bool]]:
    """Profiles over a sample plus regularity verdicts (sample-consistent only)."""
    profs = [rank_profile(pi, p) for p in points]
    dims_E = {p.dim_E for p in profs}
    dims_D = {p.dim_Delta for p in profs}
    summary = {
        "regular_sample": len(dims_E) == 1,
        "strongly_regular_sample": len(dims_E) == 1 and len(dims_D) == 1,
        "quasi_real_sample": all(p.flags["quasi_real_sample"] for p in profs),
    }
    for p in profs:
        p.flags["regular_sample"] = summary["regular_sample"]
        p.flags["strongly_regular_sample"] = summary["strongly_regular_sample"]
    return profs, summary


# -- the A_pi distribution ---------------------------------------------------


def delta_at(pi: ComplexBivector, point: Point) -> Subspace:
    A1, A2 = bivector_at(pi, point)
    return real_points(Subspace(len(A1), complex_matrix(A1, A2), is_complex=True))


def a_pi_at(pi: ComplexBivector, point: Point) -> Tuple[Subspace, Subspace]:
    """A_pi at a point, by the preimage route and the annihilator route.

    Elements are realified covectors (xi, eta) in R^{2n} standing for
    xi + i eta.  Preimage route: pi#(xi + i eta) real, i.e. A2 xi + A1 eta = 0.
    Annihilator route: A_pi is the annihilator, under the real pairing
    Re(zeta(v)) = xi(X) - eta(Y) for v = X + iY, of the realified image of
    i pi# on real covectors (the dual elimination of the same system).
    """
    n = pi.chart.dim
    A1, A2 = bivector_at(pi, point)
    # preimage route
    rows = [[A2[i][j] for j in range(n)] + [A1[i][j] for j in range(n)] for i in range(n)]
    pre = Subspace(2 * n, linalg.nullspace(rows, 2 * n, F1, F0))

    # annihilator route: realify i*pi#(e_j) = -A2[:,j] + i A1[:,j] for each
    # real coordinate covector e_j, then annihilate under (xi,eta).(X,Y) =
    # xi(X) - eta(Y).
    cons: List[List[Fraction]] = []
    for j in range(n):
        X = [-A2[i][j] for i in range(n)]
        Y = [A1[i][j] for i in range(n)]
        cons.append(X + [-y for y in Y])
    ann = Subspace(2 * n, linalg.nullspace(cons, 2 * n, F1, F0))
    return pre, ann


def a_pi_min_at(pi: ComplexBivector, point: Point) -> Subspace:
    """A_pi^min = A_pi + i A_pi as a complex subspace of the cotangent fiber."""
    pre, _ = a_pi_at(pi, point)
    n = pi.chart.dim
    gens = []
    for row in pre.basis:
        z = [GaussScalar.of(row[j], row[n + j]) for j in range(n)]
        gens.append(z)
        gens.append([GaussScalar.of(0, 1) * x for x in z])
    return Subspace(n, gens, is_complex=True)


# -- leafwise presymplectic data ---------------------------------------------


@dataclass(frozen=True)
class PresymplecticData:
    delta_basis: Subspace
    omega_re: List[List[Fraction]]
    omega_im: List[List[Fraction]]


def presymplectic_at(
    pi: ComplexBivector, point: Point, pivot_variant: int = 0
) -> PresymplecticData:
    """omega_re/omega_im on the canonical basis of Delta_pi at the point.

    Solves rho1(xi + i eta) = tau, rho2 = 0 for every basis vector tau at
    once, then omega_re(tau, tau') = pi1(xi, xi') + pi1(eta, eta') and
    omega_im(tau, tau') = -pi2(xi, xi') - pi2(eta, eta').
    pivot_variant > 0 picks a different preimage (adds a nullspace element),
    used to confirm well-definedness.
    """
    n = pi.chart.dim
    A1, A2 = bivector_at(pi, point)
    delta = delta_at(pi, point)
    # rho as a real 2n x 2n matrix acting on (xi, eta)
    rho = [
        [A1[i][j] for j in range(n)] + [-A2[i][j] for j in range(n)]
        for i in range(n)
    ] + [
        [A2[i][j] for j in range(n)] + [A1[i][j] for j in range(n)]
        for i in range(n)
    ]
    # one column (tau, 0) per basis vector
    T = [[tau[i] for tau in delta.basis] for i in range(n)]
    T += [[F0] * delta.dim for _ in range(n)]
    X = linalg.solve(rho, T, 2 * n, F0)
    if X is None:
        raise ValueError("Delta basis vector has no preimage in A_pi")
    if pivot_variant:
        kernel = linalg.nullspace(rho, 2 * n, F1, F0)
        if kernel:
            kv = kernel[pivot_variant % len(kernel)]
            X = [[x + k for x in row] for row, k in zip(X, kv)]
    Xt = linalg.transpose(X)

    def form(A):
        # X_xi^T A X_xi + X_eta^T A X_eta
        AA = [r + [F0] * n for r in A] + [[F0] * n + r for r in A]
        return linalg.matmul(Xt, linalg.matmul(AA, X))

    return PresymplecticData(delta, form(A1), linalg.neg_matrix(form(A2)))


def hat_sign_check(pi: ComplexBivector, point: Point) -> bool:
    """Sign check: the two-form of hat(gr pi) on Delta equals omega_re with
    the eps(X,Y) = xi(Y) orientation."""
    data = presymplectic_at(pi, point)
    H = hat(graph_at(pi, point))
    n = pi.chart.dim
    rows = [list(r) for r in H.basis]
    basis = [list(t) for t in data.delta_basis.basis]
    for a, ta in enumerate(basis):
        for b, tb in enumerate(basis):
            val = two_form_on_range(rows, n, ta, tb)
            if val != data.omega_re[a][b]:
                return False
    return True


# -- generalized complex matrix ----------------------------------------------


def gcs_matrix(pi: ComplexBivector, point: Point) -> Tuple[List[List[Fraction]], List[List[Fraction]]]:
    """(J, sigma) of the generalized complex structure at a point with pi2
    invertible.

    J is the unique real 2n x 2n map with J^2 = -Id whose +i-eigenspace is
    graph(pi, bivector):  J = [[A1 A2^-1, -(A1 A2^-1 A1 + A2)],
                               [A2^-1, -A2^-1 A1]].
    sigma = A1 A2^-1 A1 + A2 is the Poisson bivector of the underlying
    symplectic-type structure.
    """
    n = pi.chart.dim
    A1, A2 = bivector_at(pi, point)
    inv2 = linalg.solve(A2, linalg.identity(n, F1, F0), n, F0)
    if inv2 is None:
        nullity = n - linalg.rank(A2)
        raise ValueError(
            f"pi2 singular at the point (real index {nullity} > 0): no "
            "generalized complex matrix"
        )
    M11 = linalg.matmul(A1, inv2)
    M22 = linalg.matmul(inv2, A1)
    sigma = [
        [x + y for x, y in zip(r1, r2)]
        for r1, r2 in zip(linalg.matmul(M11, A1), A2)
    ]
    J = [
        M11[i] + [-x for x in sigma[i]] for i in range(n)
    ] + [
        inv2[i] + [-x for x in M22[i]] for i in range(n)
    ]
    return J, sigma


def plus_i_eigenspace(J: List[List[Fraction]]) -> Subspace:
    n2 = len(J)
    rows = [
        [GaussScalar.of(J[i][j], F0) for j in range(n2)] for i in range(n2)
    ]
    for i in range(n2):
        rows[i][i] = rows[i][i] - GaussScalar.of(0, 1)
    null = linalg.nullspace(rows, n2, GS_ONE, GS_ZERO)
    return Subspace(n2, null, is_complex=True)


# -- tilde reconstruction ------------------------------------------------------


def theorem_7_18_check(pi: ComplexBivector, point: Point) -> bool:
    """tilde(gr pi) at the point equals L((Delta)_C, omega_re + i omega_im)."""
    n = pi.chart.dim
    L = graph_at(pi, point)
    T = tilde(L)
    data = presymplectic_at(pi, point)
    k = data.delta_basis.dim
    E_basis = [[GaussScalar.of(x) for x in r] for r in data.delta_basis.basis]
    eps = [
        [GaussScalar.of(data.omega_re[a][b], data.omega_im[a][b]) for b in range(k)]
        for a in range(k)
    ]
    model = lagrangian_from_range_form(E_basis, eps, n)
    return T == model


# -- involutivity sampling ---------------------------------------------------


@dataclass(frozen=True)
class InvolutivityReport:
    involutive_on_sample: bool
    failures: Tuple[Tuple[int, int, Tuple[Tuple[str, Fraction], ...]], ...]


def involutivity_sample(
    generators: Sequence[MultiField], points: Sequence[Point]
) -> InvolutivityReport:
    """Pairwise symbolic brackets tested for pointwise span membership."""
    if not generators:
        return InvolutivityReport(True, ())
    chart = generators[0].chart
    n = chart.dim
    failures = []
    brackets = {}
    for a in range(len(generators)):
        for b in range(a + 1, len(generators)):
            brackets[(a, b)] = schouten(generators[a], generators[b])
    for pt in points:
        vals = []
        for g in generators:
            vals.append([poly_eval(g.component((j,)), pt) for j in range(n)])
        span, _ = linalg.rref(vals)
        for (a, b), br in brackets.items():
            bv = [poly_eval(br.component((j,)), pt) for j in range(n)]
            if any(bv) and not linalg.member(bv, span):
                failures.append((a, b, tuple(sorted(pt.items()))))
    return InvolutivityReport(not failures, tuple(failures))
