"""Exact pointwise calculus of lagrangian subspaces of C^{2n}.

Vectors split as tangent (+) cotangent: slots 0..n-1 are tangent, n..2n-1
cotangent.  The canonical pairing is the C-bilinear

    <X + xi, Y + eta> = 1/2 (eta(X) + xi(Y)).

Subspaces of R^m and of C^m are one class, Subspace, whose field is fixed
when it is built: complex when asked for or when any generator is a
GaussScalar, real otherwise.  They are kept in reduced row echelon form, so equality of
subspaces is equality of bases.  Real computations (hat, check, K, Delta, D)
realify a complex span into R^{2m} with layout [real parts | imaginary parts].
Every intersect-and-project step (the hat/check slices, the products, the
images, L intersect T_C) is one linalg.eliminate: the coordinates that must
vanish are put first, one row per generator, and the tails that remain span
the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


class Subspace:
    """Canonical subspace of R^m or C^m in reduced row echelon form.

    The field follows the generators: is_complex, or any GaussScalar entry,
    makes it a Gaussian-rational subspace of C^m with every entry a
    GaussScalar; otherwise the basis entries are Fractions (generators that
    are not ints or Fractions are made Fractions first, so rref never meets
    a float).  Pass is_complex when the generators may be empty.
    """

    __slots__ = ("m", "basis", "is_complex")

    def __init__(self, m: int, gens: Sequence[Sequence], is_complex: bool = False):
        for g in gens:
            if len(g) != m:
                raise ValueError(f"generator length {len(g)} != ambient {m}")
        self.is_complex = is_complex or any(
            isinstance(x, GaussScalar) for g in gens for x in g
        )
        if self.is_complex:
            rows = [_gauss_row(g) for g in gens]
        else:
            rows = [
                [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in g]
                for g in gens
            ]
        red, _ = linalg.rref(rows)
        self.m = m
        self.basis = tuple(tuple(r) for r in red)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return linalg.member(list(v), [list(r) for r in self.basis])

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.is_complex == other.is_complex
            and self.m == other.m
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.is_complex, self.m, self.basis))

    def __repr__(self):
        field = "C" if self.is_complex else "R"
        return f"Subspace({field}^{self.m}, dim={self.dim})"


SubspaceReal = ComplexSubspace = Subspace


def subspace_from_generators(gens, m: Optional[int] = None) -> Subspace:
    """Canonical span of the generators, inferring m from the first one."""
    gens = [list(g) for g in gens]
    if m is None:
        if not gens:
            raise ValueError("ambient dimension required for empty generator list")
        m = len(gens[0])
    return Subspace(m, gens)


# -- pairing ----------------------------------------------------------------


def pairing(u: Sequence, v: Sequence, n: int):
    """<X+xi, Y+eta> = 1/2 (eta(X) + xi(Y)), C-bilinear."""
    acc = u[0] * 0
    for t in range(n):
        acc = acc + u[t] * v[n + t] + u[n + t] * v[t]
    return acc * HALF if isinstance(acc, Fraction) else acc * GaussScalar.of(HALF)


class Lagrangian:
    """Isotropic subspace of C^{2n} in canonical echelon form.

    Constructors check isotropy always; full dimension n unless the caller
    opts into an intermediate isotropic family (products can drop rank).
    """

    __slots__ = ("n", "space")

    def __init__(self, n: int, space: Subspace):
        self.n = n
        self.space = space

    @classmethod
    def from_generators(cls, n: int, gens, allow_partial: bool = False) -> "Lagrangian":
        space = Subspace(2 * n, gens, is_complex=True)
        if not _is_isotropic(space.basis, n):
            raise ValueError("generators do not span an isotropic subspace")
        if space.dim != n and not allow_partial:
            raise ValueError(
                f"isotropic span has dimension {space.dim}, expected lagrangian "
                f"dimension {n}"
            )
        return cls(n, space)

    @property
    def basis(self):
        return self.space.basis

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def is_lagrangian(self) -> bool:
        return self.dim == self.n

    def contains(self, v) -> bool:
        return self.space.contains(_gauss_row(v))

    def __eq__(self, other):
        return (
            isinstance(other, Lagrangian)
            and self.n == other.n
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.n, self.space))

    def __repr__(self):
        return f"Lagrangian(n={self.n}, dim={self.dim}, basis={self.basis!r})"


def _is_isotropic(basis, n: int) -> bool:
    """Every pairing among the basis rows vanishes, computed as the products
    u . (v with its halves swapped)."""
    swapped = [r[n:] + r[:n] for r in basis]
    gram = linalg.matmul(basis, linalg.transpose(swapped))
    return not any(x for row in gram for x in row)


def _gauss_row(g) -> List[GaussScalar]:
    return [x if isinstance(x, GaussScalar) else GaussScalar.of(x) for x in g]


# -- graphs -----------------------------------------------------------------


def graph(datum: Sequence[Sequence[GaussScalar]], kind: str) -> Lagrangian:
    """Graph lagrangian of a skew matrix, as a bivector or a two-form.

    bivector: {pi# xi + xi} with pi# xi = A xi;  twoform: {X + i_X w} with
    (i_X w)_j = sum_i X_i W_ij.
    """
    A = [_gauss_row(r) for r in datum]
    n = len(A)
    if not linalg.is_skew(A):
        raise ValueError(f"{kind} datum must be skew-symmetric")
    rows = []
    for k in range(n):
        e = [GS_ONE if t == k else GS_ZERO for t in range(n)]
        if kind == "bivector":
            tangent = [A[i][k] for i in range(n)]
            rows.append(tangent + e)
        elif kind == "twoform":
            cot = [A[k][j] for j in range(n)]
            rows.append(e + cot)
        else:
            raise ValueError(f"unknown graph kind {kind!r}")
    return Lagrangian.from_generators(n, rows)


def bivector_of_graph(L: Lagrangian) -> Optional[List[List[GaussScalar]]]:
    """Recover the skew matrix with L = graph(A, bivector); None if L meets T_C."""
    n = L.n
    # L is a graph exactly when its cotangent parts span C^n; then the rref
    # with the cotangent half first has the rows e_k + A e_k
    red, pivots = linalg.rref([r[n:] + r[:n] for r in L.basis])
    if pivots != list(range(n)):
        return None
    return linalg.transpose([r[n:] for r in red])


# -- products ----------------------------------------------------------------


def products(kind: str, L1, L2) -> Lagrangian:
    """Tangent/cotangent products and their complex sums.

    tangent:  L1 * L2 = {X + eta1 + eta2 : X + eta1 in L1, X + eta2 in L2}
    cotangent: {X1 + X2 + eta : X1 + eta in L1, X2 + eta in L2}
    complex variants take real lagrangians (real Subspace of R^{2n}):
    L1 *_C L2 = (L1)_C * (i . (L2)_C), likewise with the cotangent product.
    """
    if kind in ("complex_tangent", "complex_cotangent"):
        c1 = complexify_real(L1)
        # the i-twist acts on the half that is summed by the product:
        # scalar_dot for the tangent product, scalar_bullet for the cotangent
        twist = "scalar_dot" if kind == "complex_tangent" else "scalar_bullet"
        c2 = transform(twist, GS_I, complexify_real(L2))
        base = "tangent" if kind == "complex_tangent" else "cotangent"
        return products(base, c1, c2)
    if kind not in ("tangent", "cotangent"):
        raise ValueError(f"unknown product kind {kind!r}")
    if L1.n != L2.n:
        raise ValueError("ambient dimension mismatch")
    n = L1.n
    lo, hi = (0, n) if kind == "tangent" else (n, 2 * n)
    # the head is the L1 shared half minus the L2 one and must vanish; the
    # tail counts the shared half once, through L1
    rows = [list(r[lo:hi] + r) for r in L1.basis]
    rows += [
        [-x for x in r[lo:hi]] + list(r[:lo]) + [GS_ZERO] * n + list(r[hi:])
        for r in L2.basis
    ]
    return Lagrangian.from_generators(n, linalg.eliminate(rows, n), allow_partial=True)


def complexify_real(S) -> Lagrangian:
    """Complexification of a real lagrangian subspace of R^{2n}."""
    if isinstance(S, Lagrangian):
        return S
    if not isinstance(S, Subspace) or S.is_complex or S.m % 2 != 0:
        raise ValueError("expected a real Subspace of R^{2n}")
    n = S.m // 2
    return Lagrangian.from_generators(
        n, [[GaussScalar.of(x) for x in r] for r in S.basis], allow_partial=True
    )


# -- transforms ---------------------------------------------------------------


def transform(kind: str, datum, L: Lagrangian) -> Lagrangian:
    n = L.n
    rows = []
    if kind == "b_field":
        B = [_gauss_row(r) for r in datum]
        if not linalg.is_skew(B):
            raise ValueError("b_field datum must be skew")
        adds = linalg.matmul([r[:n] for r in L.basis], B)
        for r, add in zip(L.basis, adds):
            rows.append(list(r[:n]) + [x + y for x, y in zip(r[n:], add)])
    elif kind == "beta":
        P = [_gauss_row(r) for r in datum]
        if not linalg.is_skew(P):
            raise ValueError("beta datum must be skew")
        # P r_cot as a row: r_cot P^T
        adds = linalg.matmul([r[n:] for r in L.basis], linalg.transpose(P))
        for r, add in zip(L.basis, adds):
            rows.append([x + y for x, y in zip(r[:n], add)] + list(r[n:]))
    elif kind == "scalar_dot":
        z = datum if isinstance(datum, GaussScalar) else GaussScalar.of(datum)
        for r in L.basis:
            rows.append(list(r[:n]) + [z * x for x in r[n:]])
    elif kind == "scalar_bullet":
        z = datum if isinstance(datum, GaussScalar) else GaussScalar.of(datum)
        for r in L.basis:
            rows.append([z * x for x in r[:n]] + list(r[n:]))
    elif kind == "conjugate":
        for r in L.basis:
            rows.append([x.conjugate() for x in r])
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    return Lagrangian.from_generators(n, rows, allow_partial=not L.is_lagrangian)


# -- realification and the hat/check/tilde families ---------------------------


def realify(L) -> List[List[int]]:
    """Real span of a Lagrangian in R^{4n} (of a complex Subspace of C^m in
    R^{2m}), layout [re parts | im parts], as 2k unreduced integer rows.

    Each basis row r is replaced by a Gaussian-integer multiple s, which
    contributes s and i s; C-independent rows give R-independent rows.
    """
    rows = []
    for r in L.basis:
        re, im = linalg._gauss_ints(r)
        rows.append(re + im)
        rows.append([-y for y in im] + re)
    return rows


def _slice_real(L, zero_cols, keep_cols) -> Subspace:
    """Intersect the real span of L (see realify) with {w[zero_cols] = 0},
    project keep_cols."""
    cols = zero_cols + keep_cols
    rows = [[r[c] for c in cols] for r in realify(L)]
    return Subspace(len(keep_cols), linalg.eliminate(rows, len(zero_cols)))


def hat(L: Lagrangian) -> Subspace:
    """{X + xi : exists eta, X + i xi + eta in L}, a real lagrangian."""
    n = L.n
    tang_im = list(range(2 * n, 3 * n))
    keep = list(range(0, n)) + list(range(3 * n, 4 * n))
    return _slice_real(L, tang_im, keep)


def check(L: Lagrangian) -> Subspace:
    """{X + xi : exists eta, X + xi + i eta in L}, a real lagrangian."""
    n = L.n
    tang_im = list(range(2 * n, 3 * n))
    keep = list(range(0, 2 * n))
    return _slice_real(L, tang_im, keep)


def tilde(L: Lagrangian) -> Lagrangian:
    """check(L) *_C hat(L), the associated quasi-real lagrangian family."""
    return products("complex_tangent", check(L), hat(L))


def hat_cot(L: Lagrangian) -> Subspace:
    """Cotangent-product mirror of hat: {X + xi : exists Y, iX + Y + xi in L}."""
    n = L.n
    cot_im = list(range(3 * n, 4 * n))
    keep = list(range(2 * n, 3 * n)) + list(range(n, 2 * n))
    return _slice_real(L, cot_im, keep)


def check_cot(L: Lagrangian) -> Subspace:
    """{X + xi : exists Y, X + iY + xi in L}."""
    n = L.n
    cot_im = list(range(3 * n, 4 * n))
    keep = list(range(0, 2 * n))
    return _slice_real(L, cot_im, keep)


def tilde_cot(L: Lagrangian) -> Lagrangian:
    return products("complex_cotangent", check_cot(L), hat_cot(L))


# -- indices and distributions -------------------------------------------------


@dataclass(frozen=True)
class IndexRecord:
    real_index: int
    dim_range: int
    dim_delta: int
    dim_D: int
    kernel_dim: int


def tangent_range(L: Lagrangian) -> Subspace:
    n = L.n
    return Subspace(n, [list(r[:n]) for r in L.basis], is_complex=True)


def real_points(E: Subspace) -> Subspace:
    """E intersect R^m for a complex subspace E of C^m."""
    m = E.m
    return _slice_real(E, list(range(m, 2 * m)), list(range(0, m)))


def real_projection(E: Subspace) -> Subspace:
    """D = {Re v : v in E}; spanned by real and imaginary parts of a basis."""
    rows = []
    for r in E.basis:
        # an integer multiple of r has parts spanning the same space
        re, im = linalg._gauss_ints(r)
        rows.append(re)
        rows.append(im)
    return Subspace(E.m, rows)


def indices(L: Lagrangian) -> IndexRecord:
    n = L.n
    real_part = _slice_real(L, list(range(2 * n, 4 * n)), list(range(0, 2 * n)))
    E = tangent_range(L)
    delta = real_points(E)
    D = real_projection(E)
    return IndexRecord(
        real_index=real_part.dim,
        dim_range=E.dim,
        dim_delta=delta.dim,
        dim_D=D.dim,
        kernel_dim=kernel_space(L).dim,
    )


def is_quasi_real(L: Lagrangian) -> bool:
    """True when the tangent range is the complexification of a real space."""
    E = tangent_range(L)
    D = real_projection(E)
    Dc = Subspace(L.n, D.basis, is_complex=True)
    return E == Dc


def kernel_space(L: Lagrangian) -> Subspace:
    """L intersect T_C as a subspace of C^n (tangent coordinates)."""
    n = L.n
    rows = [r[n:] + r[:n] for r in L.basis]
    return Subspace(n, linalg.eliminate(rows, n), is_complex=True)


def k_and_perp(L: Lagrangian) -> Tuple[Subspace, Subspace]:
    """K = L intersect (real T + T*), and its pairing-orthogonal in R^{2n}."""
    n = L.n
    K = _slice_real(L, list(range(2 * n, 4 * n)), list(range(0, 2 * n)))
    cons = [list(r[n:]) + list(r[:n]) for r in K.basis]
    perp_rows = linalg.nullspace(cons, 2 * n, F1, F0)
    return K, Subspace(2 * n, perp_rows)


# -- two-form on the range -----------------------------------------------------


def element_with_tangent(rows: List[List], n: int, x: List) -> Optional[List]:
    """An element of span(rows) in C^{2n} (or R^{2n}) with tangent part x."""
    if not rows:
        return None
    zero = x[0] * 0
    tangents = linalg.transpose([r[:n] for r in rows])
    combo = linalg.solve(tangents, x, len(rows), zero)
    if combo is None:
        return None
    vec = [zero] * (2 * n)
    for c, row in zip(combo, rows):
        for s in range(2 * n):
            vec[s] = vec[s] + c * row[s]
    return vec


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
    given on the basis and the convention eps(X, w) = xi(w)."""
    k = len(E_basis)
    rows = []
    V = [list(v) for v in E_basis]
    for a in range(k):
        xi = linalg.solve(V, eps[a], n, GS_ZERO)
        if xi is None:
            raise ValueError("inconsistent range form")
        rows.append(list(E_basis[a]) + xi)
    ann = linalg.nullspace(V, n, GS_ONE, GS_ZERO)
    for w in ann:
        rows.append([GS_ZERO] * n + list(w))
    return Lagrangian.from_generators(n, rows, allow_partial=True)


# -- images --------------------------------------------------------------------


def images(kind: str, A: Sequence[Sequence[GaussScalar]], L: Lagrangian) -> Lagrangian:
    """Backward/forward image of L along a linear map with matrix A (n x m).

    backward: result in C^{2m}: {X + A^T xi : A X + xi in L (ambient n)}.
    forward:  result in C^{2n}: {A X + xi : X + A^T xi in L (ambient m)}.
    """
    A = [_gauss_row(r) for r in A]
    nrows = len(A)
    mcols = len(A[0]) if A else 0
    B = L.basis
    if kind == "backward":
        if L.n != nrows:
            raise ValueError("backward: L must live over the codomain")
        n, m = nrows, mcols
        # X = e_c contributes the head A e_c, a basis row b the head
        # -tangent(b) and the tail A^T cot(b)
        At, E = linalg.transpose(A), linalg.identity(m, GS_ONE, GS_ZERO)
        rows = [At[c] + E[c] + [GS_ZERO] * m for c in range(m)]
        adds = linalg.matmul([b[n:] for b in B], A)
        rows += [[-x for x in b[:n]] + [GS_ZERO] * m + a for b, a in zip(B, adds)]
        return Lagrangian.from_generators(m, linalg.eliminate(rows, n), allow_partial=True)
    if kind == "forward":
        if L.n != mcols:
            raise ValueError("forward: L must live over the domain")
        n, m = nrows, mcols
        # xi = e_t contributes the head -A^T e_t, a basis row b the head
        # cot(b) and the tail A tangent(b)
        E = linalg.identity(n, GS_ONE, GS_ZERO)
        rows = [[-x for x in A[t]] + [GS_ZERO] * n + E[t] for t in range(n)]
        adds = linalg.matmul([b[:m] for b in B], linalg.transpose(A))
        rows += [list(b[m:]) + a + [GS_ZERO] * n for b, a in zip(B, adds)]
        return Lagrangian.from_generators(n, linalg.eliminate(rows, m), allow_partial=True)
    raise ValueError(f"unknown image kind {kind!r}")
