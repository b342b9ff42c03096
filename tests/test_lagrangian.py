"""Lagrangian subspaces of C^{2n}: graphs, products, transforms, indices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import linalg
from cxpoisson.lagrangian import (
    ComplexSubspace,
    Lagrangian,
    Subspace,
    SubspaceReal,
    bivector_of_graph,
    check,
    check_cot,
    complexify_real,
    element_with_tangent,
    graph,
    hat,
    hat_cot,
    images,
    indices,
    is_quasi_real,
    k_and_perp,
    kernel_space,
    lagrangian_from_range_form,
    pairing,
    products,
    real_points,
    real_projection,
    realify,
    subspace_from_generators,
    tangent_range,
    tilde,
    tilde_cot,
    transform,
    two_form_on_range,
)
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

from conftest import random_lagrangian, random_skew

F = Fraction


def star(L1, L2):
    return products("tangent", L1, L2)


def conj(L):
    return transform("conjugate", None, L)


def dot(z, L):
    return transform("scalar_dot", z, L)


def real_rows(S):
    return SubspaceReal(S.m, [list(r) for r in S.basis])


# -- subspaces and pairing ----------------------------------------------------


def test_subspace_canonical_form_and_membership():
    S = subspace_from_generators([[F(1), F(2)], [F(2), F(4)]])
    assert S.dim == 1 and S.contains([F(3), F(6)])
    C = subspace_from_generators([[GS_I, GS_ONE]])
    assert isinstance(C, ComplexSubspace)
    assert C.contains([GS_ONE, -GS_I])
    with pytest.raises(ValueError):
        subspace_from_generators([])
    assert subspace_from_generators([], m=3).dim == 0


def test_subspace_field_follows_generators():
    # integer generators are made Fractions, so rref never divides into floats
    S = Subspace(2, [[2, 3], [4, 6]])
    assert S.basis == ((F(1), F(3, 2)),) and not S.is_complex
    assert all(type(x) is F for r in S.basis for x in r)
    C = Subspace(2, [[2, GS_I]])
    assert C.is_complex and C.basis == ((GS_ONE, GaussScalar.of(0, F(1, 2))),)
    # the zero subspace keeps the field it was built over
    Z = Subspace(2, [], is_complex=True)
    assert Z.is_complex and Z != Subspace(2, [])


def test_complexify_real_rejects_complex_subspace():
    with pytest.raises(ValueError):
        complexify_real(Subspace(2, [[GS_ONE, GS_I]]))
    with pytest.raises(ValueError):
        complexify_real(Subspace(2, [], is_complex=True))


def test_pairing_formula():
    n = 2
    u = [GS_ONE, GS_ZERO, GS_ZERO, GS_I]
    v = [GS_ZERO, GS_ONE, GS_ONE, GS_ZERO]
    # <X+xi, Y+eta> = 1/2 (eta(X) + xi(Y))
    assert pairing(u, v, n) == GaussScalar.of(F(1, 2), F(1, 2))


def test_from_generators_rejects_non_isotropic():
    with pytest.raises(ValueError):
        Lagrangian.from_generators(1, [[GS_ONE, GS_ONE]])
    with pytest.raises(ValueError):
        # isotropic but not full-dimensional without the flag
        Lagrangian.from_generators(2, [[GS_ONE, GS_ZERO, GS_ZERO, GS_ZERO]])
    L = Lagrangian.from_generators(
        2, [[GS_ONE, GS_ZERO, GS_ZERO, GS_ZERO]], allow_partial=True
    )
    assert L.dim == 1 and not L.is_lagrangian


# -- graphs -------------------------------------------------------------------


def test_graph_roundtrip_bivector(rng):
    for _ in range(10):
        n = rng.choice((2, 3))
        A = random_skew(rng, n)
        L = graph(A, "bivector")
        assert L.is_lagrangian
        assert bivector_of_graph(L) == [list(r) for r in A]


def test_graph_rejects_non_skew():
    bad = [[GS_ZERO, GS_ONE], [GS_ONE, GS_ZERO]]
    with pytest.raises(ValueError):
        graph(bad, "bivector")
    with pytest.raises(ValueError):
        graph([[GS_ZERO]], "unknown")


def test_bivector_of_graph_none_for_tangent_meeting():
    # L = T_C has no bivector graph presentation
    n = 2
    rows = [
        [GS_ONE, GS_ZERO, GS_ZERO, GS_ZERO],
        [GS_ZERO, GS_ONE, GS_ZERO, GS_ZERO],
    ]
    L = Lagrangian.from_generators(n, rows)
    assert bivector_of_graph(L) is None


def test_twoform_graph_two_form_on_range(rng):
    for _ in range(6):
        n = rng.choice((2, 3))
        W = random_skew(rng, n)
        L = graph(W, "twoform")
        rows = [list(r) for r in L.basis]
        for _ in range(3):
            x = [GaussScalar.of(rng.randint(-3, 3)) for _ in range(n)]
            y = [GaussScalar.of(rng.randint(-3, 3)) for _ in range(n)]
            expected = GS_ZERO
            for i in range(n):
                for j in range(n):
                    expected = expected + x[i] * W[i][j] * y[j]
            assert two_form_on_range(rows, n, x, y) == expected


def test_element_with_tangent_outside_range_is_none():
    n = 2
    L = Lagrangian.from_generators(
        n, [[GS_ONE, GS_ZERO, GS_ZERO, GS_ZERO]], allow_partial=True
    )
    rows = [list(r) for r in L.basis]
    assert element_with_tangent(rows, n, [GS_ZERO, GS_ONE]) is None
    with pytest.raises(ValueError):
        two_form_on_range(rows, n, [GS_ZERO, GS_ONE], [GS_ONE, GS_ZERO])


def test_range_form_reconstruction(rng):
    for _ in range(10):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        E = tangent_range(L)
        rows = [list(r) for r in L.basis]
        eps = [
            [two_form_on_range(rows, n, list(v), list(w)) for w in E.basis]
            for v in E.basis
        ]
        assert lagrangian_from_range_form(
            [list(v) for v in E.basis], eps, n
        ) == L


# -- products and transforms --------------------------------------------------


def test_products_validation():
    L = graph(random_skew(random.Random(0), 2), "bivector")
    M = graph(random_skew(random.Random(1), 3), "bivector")
    with pytest.raises(ValueError):
        products("unknown", L, L)
    with pytest.raises(ValueError):
        products("tangent", L, M)


def test_transforms_preserve_lagrangian(rng):
    for _ in range(8):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        assert transform("b_field", random_skew(rng, n), L).is_lagrangian
        assert transform("beta", random_skew(rng, n), L).is_lagrangian
        assert dot(GaussScalar.of(2, 1), L).is_lagrangian
        assert transform(
            "scalar_bullet", GaussScalar.of(1, 2), L
        ).is_lagrangian
        assert conj(L).is_lagrangian
    with pytest.raises(ValueError):
        transform("b_field", [[GS_ZERO, GS_ONE], [GS_ONE, GS_ZERO]], L)
    with pytest.raises(ValueError):
        transform("unknown", None, L)


def test_b_field_shears_graph(rng):
    n = 3
    W = random_skew(rng, n)
    B = random_skew(rng, n)
    WB = [[W[i][j] + B[i][j] for j in range(n)] for i in range(n)]
    assert transform("b_field", B, graph(W, "twoform")) == graph(WB, "twoform")


def test_scalar_dot_distributes_over_star(rng):
    for _ in range(8):
        n = rng.choice((2, 3))
        L1 = random_lagrangian(rng, n)
        L2 = random_lagrangian(rng, n)
        z = GaussScalar.of(F(2), F(-1))
        assert dot(z, star(L1, L2)) == star(dot(z, L1), dot(z, L2))


def test_conjugate_twists_scalar_dot(rng):
    for _ in range(8):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        z = GaussScalar.of(F(3), F(2))
        assert conj(dot(z, L)) == dot(z.conjugate(), conj(L))


# -- hat / check / tilde ------------------------------------------------------


def test_hat_of_i_conjugate_is_check(rng):
    for _ in range(10):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        assert hat(dot(GS_I, conj(L))) == check(L)


def test_star_with_conjugates_recovers_hat_and_check(rng):
    for _ in range(8):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        hatC = complexify_real(real_rows(hat(L)))
        checkC = complexify_real(real_rows(check(L)))
        assert star(L, dot(GaussScalar.of(-1), conj(L))) == dot(
            GaussScalar.of(0, 2), hatC
        )
        assert star(L, conj(L)) == dot(GaussScalar.of(2), checkC)


def test_tilde_is_idempotent(rng):
    for _ in range(8):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        assert tilde(tilde(L)) == tilde(L)


def test_quasi_real_iff_tilde_fixed(rng):
    hits = 0
    for _ in range(40):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        fixed = tilde(L) == L
        assert is_quasi_real(L) == fixed
        hits += fixed
    assert hits  # the sample contains quasi-real members


def test_complex_star_of_common_range_pair(rng):
    # L(D, w1) *_C L(D, w2) = L(D_C, w1 + i w2) and the factors are
    # recovered by check and hat
    for _ in range(8):
        n = rng.choice((2, 3))
        W1 = random_skew(rng, n, real_only=True)
        W2 = random_skew(rng, n, real_only=True)
        R1 = real_rows_of(graph(W1, "twoform"))
        R2 = real_rows_of(graph(W2, "twoform"))
        P = products("complex_tangent", R1, R2)
        assert check(P) == R1
        assert hat(P) == R2
        Wsum = [
            [W1[i][j] + W2[i][j] * GS_I for j in range(n)] for i in range(n)
        ]
        assert P == graph(Wsum, "twoform")


def real_rows_of(L):
    return SubspaceReal(2 * L.n, [[x.re for x in r] for r in L.basis])


def test_cotangent_mirrors(rng):
    # the cotangent family obeys the mirrored identities through scalar_bullet
    for _ in range(8):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        assert tilde_cot(tilde_cot(L)) == tilde_cot(L)
        twisted = transform("scalar_bullet", GS_I, conj(L))
        assert hat_cot(twisted) == check_cot(L)


# -- indices, kernels, K ------------------------------------------------------


def test_indices_of_real_graph(rng):
    n = 3
    A = random_skew(rng, n, real_only=True)
    L = graph(A, "bivector")
    rec = indices(L)
    assert rec.real_index == n
    rank = SubspaceReal(n, [[x.re for x in r] for r in tangent_range(L).basis]).dim
    assert rec.dim_range == rank and rec.dim_delta == rank and rec.dim_D == rank
    assert rec.kernel_dim == 0
    assert kernel_space(L).dim == 0


def test_indices_of_tangent_space():
    n = 2
    rows = [
        [GS_ONE, GS_ZERO, GS_ZERO, GS_ZERO],
        [GS_ZERO, GS_ONE, GS_ZERO, GS_ZERO],
    ]
    L = Lagrangian.from_generators(n, rows)
    rec = indices(L)
    assert rec.kernel_dim == 2 and rec.dim_range == 2
    assert kernel_space(L).dim == 2


def test_index_inequalities(rng):
    for _ in range(12):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        rec = indices(L)
        assert rec.dim_delta <= rec.dim_range <= rec.dim_D
        assert rec.dim_D <= min(n, 2 * rec.dim_range - rec.dim_delta)
        assert 0 <= rec.real_index <= n


def test_k_perp_projects_onto_D(rng):
    for _ in range(10):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        K, Kp = k_and_perp(L)
        prKp = SubspaceReal(n, [list(r[:n]) for r in Kp.basis])
        assert prKp == real_projection(tangent_range(L))
        assert K.dim + Kp.dim == 2 * n


def test_realify_doubles_dimension(rng):
    for _ in range(6):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        rows = realify(L)
        assert len(rows) == 2 * L.dim


def test_real_points_and_projection():
    E = ComplexSubspace(2, [[GS_ONE, GS_I]])
    assert real_points(E).dim == 0
    assert real_projection(E).dim == 2
    E2 = ComplexSubspace(2, [[GS_ONE, GS_ZERO]])
    assert real_points(E2).dim == 1
    assert real_projection(E2).dim == 1


# -- images -------------------------------------------------------------------


def test_images_along_identity(rng):
    n = 3
    I = [[GS_ONE if i == j else GS_ZERO for j in range(n)] for i in range(n)]
    L = random_lagrangian(rng, n)
    assert images("backward", I, L) == L
    assert images("forward", I, L) == L


def test_images_are_isotropic_under_projection(rng):
    # project C^3 onto the first two coordinates
    A = [
        [GS_ONE, GS_ZERO, GS_ZERO],
        [GS_ZERO, GS_ONE, GS_ZERO],
    ]
    for _ in range(6):
        L3 = random_lagrangian(rng, 3)
        back = images("forward", A, L3)
        assert back.n == 2 and back.dim <= 2
        L2 = random_lagrangian(rng, 2)
        fwd = images("backward", A, L2)
        assert fwd.n == 3 and fwd.dim <= 3
    with pytest.raises(ValueError):
        images("backward", A, random_lagrangian(rng, 3))
    with pytest.raises(ValueError):
        images("forward", A, random_lagrangian(rng, 2))
    with pytest.raises(ValueError):
        images("sideways", A, random_lagrangian(rng, 3))


# -- single-rref eliminations against nullspace formulations -------------------
#
# The references below are the nullspace formulations this module used before
# every intersect-and-project became one linalg.eliminate: solve for the
# combinations of the generators that meet the constraint, then rebuild the
# vectors from them.


def ref_slice_real(L, zero_cols, keep_cols):
    rows = []
    for r in L.basis:
        rows.append([x.re for x in r] + [x.im for x in r])
        rows.append([-x.im for x in r] + [x.re for x in r])
    rows, _ = linalg.rref(rows)
    k = len(rows)
    cons = [[r[c] for r in rows] for c in zero_cols]
    null = linalg.nullspace(cons, k, F(1), F(0))
    out = [[sum((w[i] * rows[i][c] for i in range(k)), F(0)) for c in keep_cols] for w in null]
    return Subspace(len(keep_cols), out)


def ref_hat(L):
    n = L.n
    return ref_slice_real(L, list(range(2 * n, 3 * n)), list(range(n)) + list(range(3 * n, 4 * n)))


def ref_check(L):
    n = L.n
    return ref_slice_real(L, list(range(2 * n, 3 * n)), list(range(2 * n)))


def ref_hat_cot(L):
    n = L.n
    keep = list(range(2 * n, 3 * n)) + list(range(n, 2 * n))
    return ref_slice_real(L, list(range(3 * n, 4 * n)), keep)


def ref_check_cot(L):
    n = L.n
    return ref_slice_real(L, list(range(3 * n, 4 * n)), list(range(2 * n)))


def combine(coefs, rows, cols):
    return [sum((c * r[s] for c, r in zip(coefs, rows)), GS_ZERO) for s in cols]


def ref_products(kind, L1, L2):
    n = L1.n
    B1, B2 = L1.basis, L2.basis
    k1, k2 = len(B1), len(B2)
    lo, hi = (0, n) if kind == "tangent" else (n, 2 * n)
    cons = [[r[s] for r in B1] + [-r[s] for r in B2] for s in range(lo, hi)]
    null = linalg.nullspace(cons, k1 + k2, GS_ONE, GS_ZERO)
    B2_off = [[GS_ZERO if lo <= s < hi else x for s, x in enumerate(r)] for r in B2]
    rows = [combine(w, list(B1) + B2_off, range(2 * n)) for w in null]
    return Lagrangian.from_generators(n, rows, allow_partial=True)


def ref_images(kind, A, L):
    nrows, mcols, B, k = len(A), len(A[0]), L.basis, L.dim
    if kind == "backward":
        n, m = nrows, mcols
        cons = [[A[t][c] for c in range(m)] + [-B[i][t] for i in range(k)] for t in range(n)]
        rows = []
        for sol in linalg.nullspace(cons, m + k, GS_ONE, GS_ZERO):
            eta = combine(sol[m:], B, range(n, 2 * n))
            At_eta = [sum((A[t][c] * eta[t] for t in range(n)), GS_ZERO) for c in range(m)]
            rows.append(sol[:m] + At_eta)
        return Lagrangian.from_generators(m, rows, allow_partial=True)
    n, m = nrows, mcols
    cons = [[-A[t][c] for t in range(n)] + [B[i][m + c] for i in range(k)] for c in range(m)]
    rows = []
    for sol in linalg.nullspace(cons, n + k, GS_ONE, GS_ZERO):
        X = combine(sol[n:], B, range(m))
        AX = [sum((A[t][c] * X[c] for c in range(m)), GS_ZERO) for t in range(n)]
        rows.append(AX + sol[:n])
    return Lagrangian.from_generators(n, rows, allow_partial=True)


def ref_kernel_space(L):
    n = L.n
    cons = [[r[n + t] for r in L.basis] for t in range(n)]
    null = linalg.nullspace(cons, L.dim, GS_ONE, GS_ZERO)
    return Subspace(n, [combine(w, L.basis, range(n)) for w in null], is_complex=True)


def ref_bivector_of_graph(L):
    if not L.is_lagrangian:
        return None
    n = L.n
    cot = linalg.transpose([r[n:] for r in L.basis])
    cols = []
    for k in range(n):
        target = [GS_ONE if t == k else GS_ZERO for t in range(n)]
        combo = linalg.solve(cot, [[t] for t in target], n, GS_ZERO)
        if combo is None:
            return None
        cols.append(combine([c for c, in combo], L.basis, range(n)))
    return linalg.transpose(cols)


@st.composite
def isotropics(draw, n=None):
    """A random lagrangian of C^{2n} (n = 2..4 unless given), graph or not,
    or an isotropic subspace spanned by some of its basis rows."""
    rnd = draw(st.randoms(use_true_random=False))
    if n is None:
        n = draw(st.integers(2, 4))
    L = random_lagrangian(rnd, n)
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows = [r for r, k in zip(L.basis, keep) if k]
        L = Lagrangian.from_generators(n, rows, allow_partial=True)
    return L


@settings(max_examples=40, deadline=None)
@given(isotropics())
def test_slices_kernel_and_graph_match_nullspace_formulations(L):
    assert hat(L) == ref_hat(L)
    assert check(L) == ref_check(L)
    assert hat_cot(L) == ref_hat_cot(L)
    assert check_cot(L) == ref_check_cot(L)
    assert kernel_space(L) == ref_kernel_space(L)
    assert indices(L).kernel_dim == ref_kernel_space(L).dim
    assert bivector_of_graph(L) == ref_bivector_of_graph(L)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(isotropics(n), isotropics(n))))
def test_products_match_nullspace_formulation(pair):
    L1, L2 = pair
    for kind in ("tangent", "cotangent"):
        assert products(kind, L1, L2) == ref_products(kind, L1, L2)


GAUSS = st.builds(GaussScalar.of, st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_images_match_nullspace_formulation(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A = data.draw(st.lists(st.lists(GAUSS, min_size=m, max_size=m), min_size=n, max_size=n))
    L = data.draw(isotropics(n))
    assert images("backward", A, L) == ref_images("backward", A, L)
    L = data.draw(isotropics(m))
    assert images("forward", A, L) == ref_images("forward", A, L)
