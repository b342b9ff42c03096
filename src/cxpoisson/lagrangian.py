"""Exact pointwise calculus of lagrangian subspaces of C^{2n}.

Vectors split as tangent (+) cotangent: slots 0..n-1 are tangent, n..2n-1
cotangent.  The canonical pairing is the C-bilinear

    <X + xi, Y + eta> = 1/2 (eta(X) + xi(Y)).

Subspace covers R^m and C^m; its field is fixed when it is built (complex
when asked for or when a generator entry is a GaussScalar).  It keeps its
reduced basis as canonical integer rows (see linalg), so equality is equality
of row tuples; .basis reads them as GaussScalars or Fractions.  Only the
public constructor reduces: rows that are canonical already (eliminate tails,
heads, conjugates) go through the trusted _subspace.  A Lagrangian is a
complex Subspace of C^{2n} (m = 2n) that also keeps n; it equals the
Subspace with the same rows, and the operations here build it through the
trusted _lagrangian.  Real computations (hat, check, K, Delta, D) realify a
complex span into R^{2m}, layout [real parts | imaginary parts].  Every
intersect-and-project step is one linalg.eliminate: the coordinates that
must vanish come first, and the tails span the result.

A Lagrangian keeps one such slice once it is read (_tilde_slice, in a slot
as basis is): its real span with the im tangent block zero, projected on re
tangent, re cotangent and im cotangent.  hat is one real echelon of its re
tangent and im cotangent blocks, check its heads, tilde the complex product
of the two, and the real part of indices (K of k_and_perp) one eliminate of
its rows with the im cotangent block as the head; pointwise reads the same
slice for the leafwise presymplectic forms and the Theorem 7.18 check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .linalg import _dot
from .scalars import GaussScalar

class Subspace:
    """Canonical subspace of R^m or C^m in reduced row echelon form.

    Complex when is_complex (pass it when the generators may be empty) or any
    generator entry is a GaussScalar.  Entries are ints, Fractions and
    GaussScalars; anything else is a TypeError.  rows is the basis as
    canonical integer rows; basis is the same with GaussScalar (complex) or
    Fraction entries.
    """

    __slots__ = ("m", "rows", "is_complex", "_basis")

    def __init__(self, m: int, gens: Sequence[Sequence], is_complex: bool = False):
        gens = [list(g) for g in gens]
        for g in gens:
            if len(g) != m:
                raise ValueError(f"generator length {len(g)} != ambient {m}")
        is_complex = is_complex or any(type(x) is GaussScalar for g in gens for x in g)
        re, im, _ = _int_matrix(gens)
        rows, _ = linalg.echelon(re, im if is_complex else None)
        self.m, self.rows, self.is_complex, self._basis = m, tuple(rows), is_complex, None

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(tuple(linalg._scalars(r)) for r in self.rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence) -> bool:
        """v is in the span (over C, as is a real span): echelon of the rows
        with v added gains no row."""
        if len(v) != self.m:
            raise ValueError(f"vector length {len(v)} != ambient {self.m}")
        (re,), (im,), _ = _int_matrix([v])
        zero = (0,) * self.m
        im_rows = [r[1] if self.is_complex else zero for r in self.rows] + [im]
        return len(linalg.echelon([r[0] for r in self.rows] + [re], im_rows)[0]) == self.dim

    def __eq__(self, other):
        key = (self.is_complex, self.m, self.rows)
        return isinstance(other, Subspace) and key == (other.is_complex, other.m, other.rows)

    def __hash__(self):
        return hash((self.is_complex, self.m, self.rows))

    def __repr__(self):
        field = "C" if self.is_complex else "R"
        return f"Subspace({field}^{self.m}, dim={self.dim})"


def _subspace(m: int, rows, is_complex: bool) -> Subspace:
    """Trusted constructor: rows must already be a canonical basis."""
    S = object.__new__(Subspace)
    S.m, S.rows, S.is_complex, S._basis = m, tuple(rows), is_complex, None
    return S


# -- pairing ----------------------------------------------------------------


def pairing(u: Sequence, v: Sequence, n: int):
    """<X+xi, Y+eta> = 1/2 (eta(X) + xi(Y)), C-bilinear; a Fraction unless
    an entry is a GaussScalar."""
    acc = u[0] * 0
    for t in range(n):
        acc = acc + u[t] * v[n + t] + u[n + t] * v[t]
    return acc * GaussScalar.of(Fraction(1, 2)) if type(acc) is GaussScalar else acc * Fraction(1, 2)


class Lagrangian(Subspace):
    """An isotropic complex Subspace of C^{2n}: m = 2n, and n is kept.

    It is a Subspace with one more condition, so a Lagrangian equals, and
    hashes like, the complex Subspace with the same rows.  from_generators
    is the public constructor: it checks isotropy, and full dimension n
    unless the caller opts into an intermediate isotropic family.  The
    operations of this module build their results with the trusted
    _lagrangian: graphs of a skew datum, products, images and transforms of
    isotropic subspaces are isotropic by construction.
    """

    __slots__ = ("n", "_slice")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Lagrangian with Lagrangian.from_generators(n, gens)")

    @classmethod
    def from_generators(cls, n: int, gens, allow_partial: bool = False) -> "Lagrangian":
        rows = Subspace(2 * n, gens, is_complex=True).rows
        if not _is_isotropic(rows, n):
            raise ValueError("generators do not span an isotropic subspace")
        if len(rows) != n and not allow_partial:
            raise ValueError(f"isotropic span has dimension {len(rows)}, expected lagrangian dimension {n}")
        return _lagrangian(n, rows)

    @property
    def is_lagrangian(self) -> bool:
        return self.dim == self.n

    def __repr__(self):
        return f"Lagrangian(n={self.n}, dim={self.dim}, basis={self.basis!r})"


def _lagrangian(n: int, rows) -> Lagrangian:
    """Trusted constructor: rows must be a canonical basis of an isotropic
    subspace of C^{2n}."""
    L = object.__new__(Lagrangian)
    L.n, L.m, L.rows, L.is_complex, L._basis, L._slice = n, 2 * n, tuple(rows), True, None, None
    return L


def _is_isotropic(rows, n: int) -> bool:
    """Every pairing u . s vanishes, for rows u and s a row with its halves
    swapped: as u = [re | im], Re u . s = u . [re s | -im s], Im u . s = u . [im s | re s]."""
    us = [re + im for re, im, _ in rows]
    sw = [(re[n:] + re[:n], im[n:] + im[:n]) for re, im, _ in rows]
    vs = [(sre + tuple(-y for y in sim), sim + sre) for sre, sim in sw]
    return not any(_dot(u, a) or _dot(u, b) for k, u in enumerate(us) for a, b in vs[k:])


def _int_matrix(M, skew: str = ""):
    """(re, im, d) with M == (re + i im)/d entrywise, over one denominator,
    for entries that are ints, Fractions or GaussScalars (else TypeError).
    A ValueError names the shape of a ragged M, and, if skew names the datum,
    of one that is not square; it names skew if M is not skew-symmetric."""
    M = [list(r) for r in M]
    w = len(M[0]) if M else 0
    shape = [len(r) for r in M]
    if any(k != w for k in shape):
        raise ValueError(f"matrix rows have lengths {shape}: the datum is ragged")
    if skew and w != len(M):
        raise ValueError(f"{skew} datum has shape {len(M)}x{w}, expected a square matrix")
    re, im, d = linalg._scaled_gauss([x for r in M for x in r])
    Mre, Mim = ([v[k * w:(k + 1) * w] for k in range(len(M))] for v in (re, im))
    if skew and not (linalg.is_skew(Mre) and linalg.is_skew(Mim)):
        raise ValueError(f"{skew} datum must be skew-symmetric")
    return Mre, Mim, d


def _fused(Mre, Mim) -> List[Tuple[List[int], List[int]]]:
    """Mre + i Mim as the row pairs ([Mre | -Mim], [Mim | Mre]) _times takes."""
    return [([*a, *[-y for y in b]], [*b, *a]) for a, b in zip(Mre, Mim)]


def _times(fused, v) -> Tuple[List[int], List[int]]:
    """(re, im) of M v, for M from _fused and v fused as [re | im]: two dots an entry."""
    return [_dot(a, v) for a, _ in fused], [_dot(b, v) for _, b in fused]


# -- graphs -----------------------------------------------------------------


def graph(datum: Sequence[Sequence[GaussScalar]], kind: str) -> Lagrangian:
    """Graph lagrangian of a skew matrix, as a bivector or a two-form.

    bivector: {pi# xi + xi} with pi# xi = A xi;  twoform: {X + i_X w} with
    (i_X w)_j = sum_i X_i W_ij.
    """
    if kind not in ("bivector", "twoform"):
        raise ValueError(f"unknown graph kind {kind!r}")
    return _graph(*_int_matrix(datum, skew=kind), kind)


def _graph(Are: List[List[int]], Aim: List[List[int]], d: int, kind: str) -> Lagrangian:
    """graph of the skew matrix (Are + i Aim)/d, given as integer rows."""
    n, s = len(Are), -1 if kind == "bivector" else 1
    # twoform row k: d e_k, then row k of W; bivector row k: A e_k, which is
    # minus row k of A by skewness, then d e_k
    re = [[d if t == k else 0 for t in range(n)] + [s * x for x in Are[k]] for k in range(n)]
    im = [[0] * n + [s * x for x in Aim[k]] for k in range(n)]
    if kind == "bivector":
        re, im = [r[n:] + r[:n] for r in re], [i[n:] + i[:n] for i in im]
    return _lagrangian(n, linalg.echelon(re, im)[0])


def bivector_of_graph(L: Lagrangian) -> Optional[List[List[GaussScalar]]]:
    """Recover the skew matrix with L = graph(A, bivector); None if L meets T_C."""
    n = L.n
    # L is a graph exactly when its cotangent parts span C^n; then the reduced
    # basis with the cotangent half first has the rows e_k + A e_k
    red, pivots = linalg.echelon(
        [re[n:] + re[:n] for re, _, _ in L.rows], [im[n:] + im[:n] for _, im, _ in L.rows]
    )
    if pivots != list(range(n)):
        return None
    return linalg.transpose([linalg._scalars((re[n:], im[n:], d)) for re, im, d in red])


# -- products ----------------------------------------------------------------


def products(kind: str, L1, L2) -> Lagrangian:
    """Tangent/cotangent products and their complex sums.

    tangent:  L1 * L2 = {X + eta1 + eta2 : X + eta1 in L1, X + eta2 in L2}
    cotangent: {X1 + X2 + eta : X1 + eta in L1, X2 + eta in L2}
    complex variants take real lagrangians (real Subspace of R^{2n}, or its
    complexification): L1 *_C L2 = (L1)_C * (i . (L2)_C), likewise with the
    cotangent product.  As both factors are real, a complex product is one
    real eliminate and one echelon over Q(i) (_complex_product).
    """
    if kind in ("complex_tangent", "complex_cotangent"):
        c1, c2 = _real_factor(L1), _real_factor(L2)
        if c1.n != c2.n:
            raise ValueError("ambient dimension mismatch")
        return _complex_product(kind, c1.n, [re for re, _, _ in c1.rows], [re for re, _, _ in c2.rows])
    if kind not in ("tangent", "cotangent"):
        raise ValueError(f"unknown product kind {kind!r}")
    if L1.n != L2.n:
        raise ValueError("ambient dimension mismatch")
    n = L1.n
    lo, hi = (0, n) if kind == "tangent" else (n, 2 * n)
    zero = (0,) * n

    # the head is the L1 shared half minus the L2 one and must vanish; the
    # tail counts the shared half once, through L1
    def second(v):
        return tuple(-x for x in v[lo:hi]) + v[:lo] + zero + v[hi:]

    re = [r[0][lo:hi] + r[0] for r in L1.rows] + [second(r[0]) for r in L2.rows]
    im = [r[1][lo:hi] + r[1] for r in L1.rows] + [second(r[1]) for r in L2.rows]
    return _lagrangian(n, linalg.eliminate(n, re, im))


def _complex_product(kind: str, n: int, rows1, rows2) -> Lagrangian:
    """products(kind, L1, L2) for the complex kinds, the real lagrangians
    L1 and L2 of R^{2n} given by integer rows that span them.

    Write w for the shared half (tangent for complex_tangent, cotangent for
    complex_cotangent) and u for the summed one.  The real (w, u1, u2) with
    w + u1 in L1 and w + u2 in L2 form a space S defined over R, so S_C holds
    every complex solution, and the product is the complex span of
    w + u1 + i u2 over S: the i-twist of L2 multiplies its summed half by i.
    S is one real eliminate: an L1 row puts its shared half in the head and
    in w, its summed half in u1; an L2 row puts minus its shared half in the
    head and its summed half in u2."""
    lo, hi = (0, n) if kind == "complex_tangent" else (n, 2 * n)
    zero = [0] * n
    rows = [[*r[lo:hi], *r[lo:hi], *r[:lo], *r[hi:], *zero] for r in rows1]
    rows += [[*(-x for x in r[lo:hi]), *zero, *zero, *r[:lo], *r[hi:]] for r in rows2]
    S = [ints for ints, _ in linalg.eliminate(n, rows)]
    if kind == "complex_tangent":
        re, im = [v[:2 * n] for v in S], [[*zero, *v[2 * n:]] for v in S]
    else:
        re, im = [[*v[n:2 * n], *v[:n]] for v in S], [[*v[2 * n:], *zero] for v in S]
    return _lagrangian(n, linalg.echelon(re, im)[0])


def _real_factor(S) -> Lagrangian:
    """complexify_real(S) for a factor of a complex product, which must be
    the complexification of a real lagrangian."""
    L = complexify_real(S)
    if any(any(im) for _, im, _ in L.rows):
        raise ValueError("expected a real Subspace of R^{2n}, got a complex Lagrangian")
    return L


def complexify_real(S) -> Lagrangian:
    """Complexification of a real lagrangian subspace of R^{2n}."""
    if isinstance(S, Lagrangian):
        return S
    if not isinstance(S, Subspace) or S.is_complex or S.m % 2 != 0:
        raise ValueError("expected a real Subspace of R^{2n}")
    rows = [(ints, (0,) * S.m, d) for ints, d in S.rows]
    if not _is_isotropic(rows, S.m // 2):
        raise ValueError("the real subspace is not isotropic")
    return _lagrangian(S.m // 2, rows)


# -- transforms ---------------------------------------------------------------


def transform(kind: str, datum, L: Lagrangian) -> Lagrangian:
    n = L.n
    if kind == "conjugate":
        # conjugating a canonical basis leaves it canonical
        rows = [(re, tuple(-y for y in im), d) for re, im, d in L.rows]
        return _lagrangian(n, rows)
    # each row becomes d row + M row[src] added to its half dst, M over d:
    # z - 1 on the half that scalar_dot (cotangent) or scalar_bullet (tangent)
    # multiplies by z, i_X B = -B X on the cotangent half, P xi on the tangent
    tan, cot = slice(0, n), slice(n, 2 * n)
    if kind in ("scalar_dot", "scalar_bullet"):
        [[a]], [[b]], d = _int_matrix([[datum]])
        src = dst = cot if kind == "scalar_dot" else tan

        def add(re, im):  # (z - 1) v, z - 1 = (a - d + b i)/d
            return [(a - d) * x - b * y for x, y in zip(re, im)], [(a - d) * y + b * x for x, y in zip(re, im)]
    elif kind in ("b_field", "beta"):
        Mre, Mim, d = _int_matrix(datum, skew=kind)
        src, dst = (tan, cot) if kind == "b_field" else (cot, tan)
        if kind == "b_field":
            Mre, Mim = ([[-x for x in r] for r in M] for M in (Mre, Mim))
        M = _fused(Mre, Mim)

        def add(re, im):
            return _times(M, re + im)
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    re_rows, im_rows = [], []
    for re, im, _ in L.rows:
        add_re, add_im = add(re[src], im[src])
        r, i = [d * x for x in re], [d * y for y in im]
        r[dst] = [x + y for x, y in zip(r[dst], add_re)]
        i[dst] = [x + y for x, y in zip(i[dst], add_im)]
        re_rows.append(r)
        im_rows.append(i)
    rows = linalg.echelon(re_rows, im_rows)[0]
    if L.is_lagrangian and len(rows) != n:
        # a scalar 0 collapses a half
        raise ValueError(f"{kind} transform has dimension {len(rows)}, expected lagrangian dimension {n}")
    return _lagrangian(n, rows)


# -- realification and the hat/check/tilde families ---------------------------


def realify(L: Subspace) -> List[List[int]]:
    """Real span of a complex Subspace of C^m (a Lagrangian: m = 2n) in
    R^{2m}, layout [re parts | im parts], as 2k unreduced integer rows: each
    canonical row re + i im and i times it."""
    rows = []
    for re, im, _ in L.rows:
        rows.append(list(re + im))
        rows.append([-y for y in im] + list(re))
    return rows


def _cols(n: int, *blocks: int) -> List[int]:
    """Realified columns of the blocks 0 re tangent, 1 re cotangent,
    2 im tangent, 3 im cotangent (of size n), in the order given."""
    return [b * n + t for b in blocks for t in range(n)]


def _slice_real(L, zero_cols, keep_cols) -> Subspace:
    """Intersect the real span of L (see realify) with {w[zero_cols] = 0},
    project keep_cols."""
    cols = zero_cols + keep_cols
    rows = [[r[c] for c in cols] for r in realify(L)]
    return _subspace(len(keep_cols), linalg.eliminate(len(zero_cols), rows), False)


def _tilde_slice(L: Lagrangian) -> Subspace:
    """The one real slice of L behind hat, check, tilde and the real part of
    indices: im tangent zero, keeping the blocks re tangent, re cotangent
    and im cotangent.  Built on first read and kept, as basis is."""
    if L._slice is None:
        L._slice = _slice_real(L, _cols(L.n, 2), _cols(L.n, 0, 1, 3))
    return L._slice


def _blocks(W: Subspace, *blocks: int) -> Subspace:
    """The span of the given blocks of n columns of W, a real slice of
    three blocks, reduced by one real echelon: the projected rows of W,
    unreduced, would put wider integers into a product's elimination."""
    pos = _cols(W.m // 3, *blocks)
    return _subspace(len(pos), linalg.echelon([[ints[p] for p in pos] for ints, _ in W.rows])[0], False)


def _tilde_from_slice(kind: str, W: Subspace) -> Lagrangian:
    """tilde (kind complex_tangent) or tilde_cot (complex_cotangent) from W,
    the one real slice of L behind both of its slices.  W's blocks of n
    columns are re tangent and re cotangent, the check slice, which is W's
    heads, and then the block the hat slice adds: im cotangent for tilde,
    im tangent for tilde_cot.  The hat slice is the span of W's blocks 0
    and 2 (tilde) or 2 and 1 (tilde_cot)."""
    n = W.m // 3
    hat_rows = _blocks(W, *((0, 2) if kind == "complex_tangent" else (2, 1))).rows
    check_rows = linalg._heads(W.rows, 2 * n)
    return _complex_product(kind, n, [ints for ints, _ in check_rows], [ints for ints, _ in hat_rows])


def hat(L: Lagrangian) -> Subspace:
    """{X + xi : exists eta, X + i xi + eta in L}, a real lagrangian."""
    return _blocks(_tilde_slice(L), 0, 2)


def check(L: Lagrangian) -> Subspace:
    """{X + xi : exists eta, X + xi + i eta in L}, a real lagrangian."""
    return _subspace(2 * L.n, linalg._heads(_tilde_slice(L).rows, 2 * L.n), False)


def tilde(L: Lagrangian) -> Lagrangian:
    """check(L) *_C hat(L), the associated quasi-real lagrangian family."""
    return _tilde_from_slice("complex_tangent", _tilde_slice(L))


def hat_cot(L: Lagrangian) -> Subspace:
    """Cotangent-product mirror of hat: {X + xi : exists Y, iX + Y + xi in L}."""
    return _slice_real(L, _cols(L.n, 3), _cols(L.n, 2, 1))


def check_cot(L: Lagrangian) -> Subspace:
    """{X + xi : exists Y, X + iY + xi in L}."""
    return _slice_real(L, _cols(L.n, 3), _cols(L.n, 0, 1))


def tilde_cot(L: Lagrangian) -> Lagrangian:
    return _tilde_from_slice("complex_cotangent", _slice_real(L, _cols(L.n, 3), _cols(L.n, 0, 1, 2)))


# -- indices and distributions -------------------------------------------------


@dataclass(frozen=True)
class IndexRecord:
    real_index: int
    dim_range: int
    dim_delta: int
    dim_D: int
    kernel_dim: int


def tangent_range(L: Lagrangian) -> Subspace:
    return _subspace(L.n, linalg._heads(L.rows, L.n), True)


def real_points(E: Subspace) -> Subspace:
    """E intersect R^m for a complex subspace E of C^m."""
    return _slice_real(E, list(range(E.m, 2 * E.m)), list(range(E.m)))


def real_projection(E: Subspace) -> Subspace:
    """D = {Re v : v in E}; spanned by real and imaginary parts of a basis."""
    rows, _ = linalg.echelon([part for re, im, _ in E.rows for part in (re, im)])
    return _subspace(E.m, rows, False)


def indices(L: Lagrangian) -> IndexRecord:
    E = tangent_range(L)
    D = real_projection(E)
    # Delta_C = E meet conj E and D_C = E + conj E
    return IndexRecord(real_index=_real_part(L).dim, dim_range=E.dim, dim_delta=2 * E.dim - D.dim,
                       dim_D=D.dim, kernel_dim=kernel_space(L).dim)


def is_quasi_real(L: Lagrangian) -> bool:
    """True when the tangent range E is the complexification of a real space:
    E + conj E = D_C has the dimension of E."""
    E = tangent_range(L)
    return real_projection(E).dim == E.dim


def _real_part(L: Lagrangian) -> Subspace:
    """L meet (real T + T*), in R^{2n}: one eliminate of the rows of the
    kept slice, with its im cotangent block as the head that must vanish."""
    n = L.n
    return _subspace(2 * n, linalg.eliminate(n, [v[2 * n:] + v[:2 * n] for v, _ in _tilde_slice(L).rows]), False)


def kernel_space(L: Lagrangian) -> Subspace:
    """L intersect T_C as a subspace of C^n (tangent coordinates)."""
    n = L.n
    re = [re[n:] + re[:n] for re, _, _ in L.rows]
    im = [im[n:] + im[:n] for _, im, _ in L.rows]
    return _subspace(n, linalg.eliminate(n, re, im), True)


def k_and_perp(L: Lagrangian) -> Tuple[Subspace, Subspace]:
    """K = L intersect (real T + T*), and its pairing-orthogonal in R^{2n}."""
    n = L.n
    K = _real_part(L)
    # <k, x> = 0 pairs the halves of k with the swapped halves of x
    return K, _subspace(2 * n, linalg.nullspace(2 * n, [ints[n:] + ints[:n] for ints, _ in K.rows]), False)


# -- two-form on the range -----------------------------------------------------


def element_with_tangent(rows: List[List], n: int, x: List) -> Optional[List]:
    """An element of span(rows) in C^{2n} (or R^{2n}) with tangent part x:
    sum_k c_k rows[k], with c from solve (free coefficients zero)."""
    if not rows:
        return None
    k = len(rows)
    # rows and x over one denominator; column s is (rows[0][s], ..., x[s])
    re, im, d = _int_matrix([list(r) for r in rows] + [list(x) + [0] * n])
    Tre, Tim = linalg.transpose(re), linalg.transpose(im)
    combo = linalg.solve(k, Tre[:n], Tim[:n])
    if combo is None:
        return None
    D = lcm(*(dc for _, _, dc in combo))
    el = _times(_fused([t[:k] for t in Tre], [t[:k] for t in Tim]),
                [a * (D // dc) for (a,), _, dc in combo] + [b * (D // dc) for _, (b,), dc in combo])
    is_complex = any(type(t) is GaussScalar for r in [*rows, x] for t in r)
    return linalg._scalars((*el, D * d) if is_complex else (el[0], D * d))


def two_form_on_range(rows: List[List], n: int, x: List, y: List):
    """eps(x, y) = xi(y) for the element x + xi of the lagrangian.

    Well-defined for x, y in the tangent range by isotropy.
    """
    el = element_with_tangent(rows, n, x)
    if el is None:
        raise ValueError("x is not in the tangent range")
    return sum((el[n + t] * y[t] for t in range(n)), start=x[0] * 0)


def lagrangian_from_range_form(
    E_basis: List[List[GaussScalar]], eps: List[List[GaussScalar]], n: int
) -> Lagrangian:
    """L(E, eps) = {X + xi : X in E, xi|_E = i_X eps}, with eps(v_a, v_b)
    given on the basis and the convention eps(X, w) = xi(w).

    Its elements are X = sum_a c_a v_a with xi(v_b) = sum_a c_a eps(v_a, v_b)
    for every b.  One eliminate keeps the (c, X + xi) spanned by c = e_a (head
    -eps(v_a, .)) and xi = e_t (head v_.[t]) whose head vanishes; the form
    is consistent when every c is kept."""
    return _range_form(*_int_matrix([list(v) + list(e) for v, e in zip(E_basis, eps)]), n)


def _range_form(re, im, d, n: int) -> Lagrangian:
    """lagrangian_from_range_form for the rows [V | eps] == (re + i im)/d."""
    k = len(re)
    re_rows = [[-x for x in r[n:]] + [d if j == a else 0 for j in range(k)] + r[:n] + [0] * n
               for a, r in enumerate(re)]
    im_rows = [[-x for x in r[n:]] + [0] * k + r[:n] + [0] * n for r in im]
    re_rows += [[r[t] for r in re] + [0] * (k + n) + [d if s == t else 0 for s in range(n)] for t in range(n)]
    im_rows += [[r[t] for r in im] + [0] * (k + 2 * n) for t in range(n)]
    tails = linalg.eliminate(k, re_rows, im_rows)
    if sum(any(t[0][:k]) for t in tails) < k:
        raise ValueError("inconsistent range form")
    rows, _ = linalg.echelon([t[0][k:] for t in tails], [t[1][k:] for t in tails])
    if not _is_isotropic(rows, n):
        raise ValueError("generators do not span an isotropic subspace")
    return _lagrangian(n, rows)


# -- images --------------------------------------------------------------------


def images(kind: str, A: Sequence[Sequence[GaussScalar]], L: Lagrangian) -> Lagrangian:
    """Backward/forward image of L along a linear map with matrix A (n x m).

    backward: result in C^{2m}: {X + A^T xi : A X + xi in L (ambient n)}.
    forward:  result in C^{2n}: {A X + xi : X + A^T xi in L (ambient m)}.
    """
    if not A:
        raise ValueError(f"{kind} image along a matrix of shape 0x?: with no rows, "
                         "its domain size is unknown")
    Are, Aim, d = _int_matrix(A)
    n, m = len(Are), len(Are[0])
    if kind == "backward":
        if L.n != n:
            raise ValueError("backward: L must live over the codomain")
        # X = e_c contributes the head A e_c and the tail d e_c; a basis row b
        # the head -d tangent(b) and the tail A^T cot(b)
        Tre, Tim = linalg.transpose(Are), linalg.transpose(Aim)
        re = [Tre[c] + [d if t == c else 0 for t in range(m)] + [0] * m for c in range(m)]
        im = [Tim[c] + [0] * (2 * m) for c in range(m)]
        T = _fused(Tre, Tim)
        for r, i, _ in L.rows:
            add_re, add_im = _times(T, r[n:] + i[n:])
            re.append([-d * x for x in r[:n]] + [0] * m + add_re)
            im.append([-d * x for x in i[:n]] + [0] * m + add_im)
        return _lagrangian(m, linalg.eliminate(n, re, im))
    if kind == "forward":
        if L.n != m:
            raise ValueError("forward: L must live over the domain")
        # xi = e_t contributes the head -A^T e_t and the tail d e_t; a basis
        # row b the head d cot(b) and the tail A tangent(b)
        re = [[-x for x in Are[t]] + [0] * n + [d if s == t else 0 for s in range(n)] for t in range(n)]
        im = [[-x for x in Aim[t]] + [0] * (2 * n) for t in range(n)]
        M = _fused(Are, Aim)
        for r, i, _ in L.rows:
            add_re, add_im = _times(M, r[:m] + i[:m])
            re.append([d * x for x in r[m:]] + add_re + [0] * n)
            im.append([d * x for x in i[m:]] + add_im + [0] * n)
        return _lagrangian(n, linalg.eliminate(m, re, im))
    raise ValueError(f"unknown image kind {kind!r}")
