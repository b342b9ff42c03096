"""Pointwise evaluation of symbolic Poisson data into Dirac linear algebra.

Rank profiles, the A_pi distribution, leafwise presymplectic forms, the
generalized complex matrix of a real-index-zero structure, and the
tilde-reconstruction check.  All points are rational; all verdicts exact.

A bivector pi = pi1 + i pi2 is evaluated once per point, to the integer
rows (re, im, d) of its complex matrix A = (re + i im)/d (_rows_at, one call
of poly.poly_values).  rank_profile, delta_at, graph_at, a_pi_at, gcs_matrix
and the normal-form checks read those rows; matrix_at makes the GaussScalar
matrix of them, for callers that want A itself.
The dimensions of Delta = E meet R^n and D = Re E follow from E = range A
and D: their complexifications are E meet conj E and E + conj E, so
dim Delta = 2 dim E - dim D, and E = conj E, which profile_sample calls
quasi-real, exactly when dim E = dim D.

gcs_matrix reads A2^-1 and A2^-1 A1 off one solve, and the (1,1) block
A1 A2^-1 of J as the transpose of A2^-1 A1, as A1 and A2 are skew (Gualtieri,
"Generalized complex geometry", Ann. of Math. 174, 2011).

The leafwise presymplectic forms are read off gr pi, as on any Dirac
structure L: omega(X, Y) = zeta(Y) for X + zeta in L (Courant, "Dirac
manifolds", Trans. AMS 319, 1990).  On the real tangent vectors of
Delta its real and imaginary parts are the two-forms of check(L) and hat(L).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from . import linalg
from .bivector import ComplexBivector
from .fields import GradedField, MultiField, schouten
from .lagrangian import (
    Lagrangian,
    Subspace,
    _cols,
    _graph,
    _int_matrix,
    _range_form,
    _slice_real,
    _subspace,
    _tilde_slice,
    real_points,
    real_projection,
    tilde,
)
from .linalg import _dot
from .poly import Chart, poly_eval, poly_values
from .scalars import GS_ZERO, GaussScalar, _make

Point = Mapping[str, Fraction]


# -- deterministic sampling --------------------------------------------------

# fixed nonzero rational values cycled through coordinates; chosen so that the
# sparse polynomial examples in scope stay at generic rank
_GRID_VALUES = [Fraction(v) for v in (
    "1 1/2 -1/3 2 -1 3/2 1/4 -2 5/3 -3/4 3 -1/5 7/2 2/5 -5/2 1/3 4 -2/3 5/4 -4/5".split())]


def grid_points(chart: Chart, count: int = 20) -> List[Dict[str, Fraction]]:
    """Deterministic rational sample grid with all-nonzero coordinates: the
    first count of its 20 distinct points, all 20 when count is larger."""
    pts = []
    L = len(_GRID_VALUES)
    for k in range(min(count, L)):
        pts.append(
            {
                name: _GRID_VALUES[(k + 3 * j * (k + 1) + j) % L]
                for j, name in enumerate(chart.vars)
            }
        )
    return pts


# -- pointwise matrices ------------------------------------------------------


def _rows_at(field: GradedField, point: Point) -> Tuple[List[List[int]], List[List[int]], int]:
    """(re, im, d) with field(dx_i, dx_j) (or field(e_i, e_j)) = (re[i][j] +
    i im[i][j])/d for a degree-2 MultiField or FormField at a rational point:
    integer rows over one denominator with content 1, as _int_matrix gives
    them.  For a bivector's body this is its complex matrix A = A1 + i A2."""
    if field.degree != 2:
        raise ValueError(f"expected a degree-2 field at a point, got degree {field.degree}")
    n = field.chart.dim
    vals, d = poly_values(field.chart, field.comps.values(), point)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for (i, j), (a, b) in zip(field.comps, vals):
        re[i][j], re[j][i] = a, -a
        im[i][j], im[j][i] = b, -b
    return re, im, d


def matrix_at(field: GradedField, point: Point) -> List[List[GaussScalar]]:
    """The skew GaussScalar matrix of _rows_at(field, point)."""
    re, im, d = _rows_at(field, point)
    return [[_make(a, b, d) if a or b else GS_ZERO for a, b in zip(r, i)] for r, i in zip(re, im)]


def graph_at(pi: ComplexBivector, point: Point) -> Lagrangian:
    return _graph(*_rows_at(pi.body, point), "bivector")


# -- rank profiles -----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    point: Tuple[Tuple[str, Fraction], ...]
    dim_E: int
    dim_Delta: int
    dim_D: int
    real_index: int


def rank_profile(pi: ComplexBivector, point: Point) -> RankProfile:
    Are, Aim, _ = _rows_at(pi.body, point)
    n = len(Are)
    # row span = column span by skewness
    E = _subspace(n, linalg.echelon(Are, Aim)[0], True)
    D = real_projection(E)
    return RankProfile(
        point=tuple(sorted(point.items())),
        dim_E=E.dim,
        dim_Delta=2 * E.dim - D.dim,
        dim_D=D.dim,
        real_index=n - len(linalg.echelon(Aim)[0]),
    )


def profile_sample(pi: ComplexBivector, points: Sequence[Point]) -> Tuple[List[RankProfile], Dict[str, bool]]:
    """Profiles over a sample plus regularity verdicts (sample-consistent only)."""
    profs = [rank_profile(pi, p) for p in points]
    dims_E = {p.dim_E for p in profs}
    dims_Delta = {p.dim_Delta for p in profs}
    return profs, {
        "regular_sample": len(dims_E) == 1,
        "strongly_regular_sample": len(dims_E) == 1 and len(dims_Delta) == 1,
        "quasi_real_sample": all(p.dim_E == p.dim_D for p in profs),
    }


# -- the A_pi distribution ---------------------------------------------------


def delta_at(pi: ComplexBivector, point: Point) -> Subspace:
    """Delta = E meet R^n, E = range A the row span of A, as in rank_profile."""
    Are, Aim, _ = _rows_at(pi.body, point)
    return real_points(_subspace(len(Are), linalg.echelon(Are, Aim)[0], True))


def a_pi_at(pi: ComplexBivector, point: Point) -> Tuple[Subspace, Subspace]:
    """A_pi at a point, by the preimage route and the annihilator route.

    Elements are realified covectors (xi, eta) in R^{2n} standing for
    zeta = xi + i eta.  Preimage route: pi#(zeta) real, read off gr pi as
    the cotangent parts of its elements with real tangent part (one real
    slice).  Annihilator route: the nullspace of the realified images of
    i pi# on the real coordinate covectors, under the real pairing
    Re(zeta(v)) = xi(X) - eta(Y) for v = X + iY; by skewness
    Re(zeta(i pi# e_j)) = Im(pi# zeta)_j, so it is the same space.
    """
    n = pi.chart.dim
    Are, Aim, d = _rows_at(pi.body, point)
    pre = _slice_real(_graph(Are, Aim, d, "bivector"), _cols(n, 2), _cols(n, 1, 3))
    # i pi#(e_j) = -A2[:, j] + i A1[:, j], paired as xi(X) - eta(Y): by
    # skewness the row (A2[j], A1[j])
    ann = _subspace(2 * n, linalg.nullspace(2 * n, [im + re for re, im in zip(Are, Aim)]), False)
    return pre, ann


def a_pi_min_at(pi: ComplexBivector, point: Point) -> Subspace:
    """A_pi^min = A_pi + i A_pi as a complex subspace of the cotangent fiber."""
    pre, _ = a_pi_at(pi, point)
    n = pi.chart.dim
    # the complex span of the z = xi + i eta, which holds i z as well
    rows, _ = linalg.echelon([ints[:n] for ints, _ in pre.rows], [ints[n:] for ints, _ in pre.rows])
    return _subspace(n, rows, True)


# -- leafwise presymplectic data ---------------------------------------------


@dataclass(frozen=True)
class PresymplecticData:
    delta_basis: Subspace
    omega_re: List[List[Fraction]]
    omega_im: List[List[Fraction]]


def presymplectic_at(pi: ComplexBivector, point: Point) -> PresymplecticData:
    """omega_re/omega_im on the canonical basis of Delta_pi at the point.

    The leafwise form of the Dirac structure L = gr pi is omega(X, Y) =
    zeta(Y) for X + zeta in L.  It is well defined on E = range pi#: two
    elements over the same X differ by some zeta' in L, and isotropy of L
    gives zeta'(Y) = 2 <zeta', Y + eta> = 0 for every Y + eta in L.  For
    real tau_a, tau_b in Delta, omega_re(tau_a, tau_b) = Re zeta_a(tau_b) is
    the two-form of check(L) and omega_im(tau_a, tau_b) = Im zeta_a(tau_b)
    that of hat(L).
    """
    return _presymplectic(_tilde_slice(graph_at(pi, point)))


def _presymplectic(W: Subspace) -> PresymplecticData:
    """presymplectic_at from W, the real slice of L = gr pi that tilde makes
    (lagrangian._tilde_slice): the elements with real tangent part, as rows
    (tau, Re zeta, Im zeta)/d.  Its rows with tau != 0 lift the canonical
    basis of Delta; each omega entry is an integer dot product over d_a d_b."""
    n = W.m // 3
    lifts = _lifts(W)

    def form(part):
        return [[Fraction(_dot(a[part], b[0]), a[3] * b[3]) for b in lifts] for a in lifts]

    return PresymplecticData(_subspace(n, linalg._heads(W.rows, n), False), form(1), form(2))


def _lifts(W: Subspace) -> List[tuple]:
    """The rows (tau, Re zeta, Im zeta, d) of W with tau != 0."""
    n = W.m // 3
    return [(v[:n], v[n:2 * n], v[2 * n:], d) for v, d in W.rows if any(v[:n])]


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
    re, im, d = _rows_at(pi.body, point)
    # A1 = re/d and A2 = im/d, so the one solve of im X = [d Id | re] gives
    # X = [A2^-1 | A2^-1 A1]
    X = linalg.solve(n, [r + [d if j == i else 0 for j in range(n)] + a
                         for i, (r, a) in enumerate(zip(im, re))])
    if X is None:
        nullity = n - len(linalg.echelon(im)[0])
        raise ValueError(
            f"pi2 singular at the point (real index {nullity} > 0): no "
            "generalized complex matrix"
        )
    # X = [V | W]/D.  A1 and A2 are skew, so A1 A2^-1 = (A2^-1 A1)^T = W^T/D
    # and sigma = (W^T re + D im)/(D d)
    D = lcm(*(dx for _, dx in X))
    V = [[x * (D // dx) for x in ints[:n]] for ints, dx in X]
    W = [[x * (D // dx) for x in ints[n:]] for ints, dx in X]
    Wt, cols = list(zip(*W)), list(zip(*re))
    S = [[_dot(w, c) + D * y for c, y in zip(cols, i)] for w, i in zip(Wt, im)]

    def frac(M, den):
        return [[Fraction(x, den) for x in r] for r in M]

    sigma = frac(S, D * d)
    J = [a + [-x for x in b] for a, b in zip(frac(Wt, D), sigma)]
    J += [a + [-x for x in b] for a, b in zip(frac(V, D), frac(W, D))]
    return J, sigma


def plus_i_eigenspace(J: List[List[Fraction]]) -> Subspace:
    """The kernel of J - i Id, over the denominator d of J."""
    re, im, d = _int_matrix(J)
    im = [[x - d if i == j else x for j, x in enumerate(r)] for i, r in enumerate(im)]
    return _subspace(len(re), linalg.nullspace(len(re), re, im), True)


# -- tilde reconstruction ------------------------------------------------------


def theorem_7_18_check(pi: ComplexBivector, point: Point) -> bool:
    """tilde(gr pi) at the point equals L((Delta)_C, omega_re + i omega_im);
    both sides are read off one real slice of gr pi.  The lifts' integer
    tangents tau_a span Delta, and on them the form takes the integer values
    N_ab = zeta_a(tau_b), which _presymplectic divides by d_a d_b: the range
    form is the integer rows [tau_a | N_ab]."""
    return _theorem_7_18(graph_at(pi, point))


def _theorem_7_18(L: Lagrangian) -> bool:
    """theorem_7_18_check on L = gr pi at the point."""
    W = _tilde_slice(L)
    lifts = _lifts(W)
    re = [list(tau) + [_dot(zre, b[0]) for b in lifts] for tau, zre, _, _ in lifts]
    im = [[0] * L.n + [_dot(zim, b[0]) for b in lifts] for _, _, zim, _ in lifts]
    return tilde(L) == _range_form(re, im, 1, L.n)


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
        span = Subspace(n, [[poly_eval(g.component((j,)), pt) for j in range(n)] for g in generators], True)
        for (a, b), br in brackets.items():
            bv = [poly_eval(br.component((j,)), pt) for j in range(n)]
            if any(bv) and not span.contains(bv):
                failures.append((a, b, tuple(sorted(pt.items()))))
    return InvolutivityReport(not failures, tuple(failures))
