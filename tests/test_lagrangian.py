"""Lagrangian subspaces of C^{2n}: graphs, products, transforms, indices."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import lagrangian, linalg
from cxpoisson.lagrangian import (
    Lagrangian,
    Subspace,
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
    tangent_range,
    tilde,
    tilde_cot,
    transform,
    two_form_on_range,
)
from cxpoisson.pointwise import _theorem_7_18
from cxpoisson.scalars import GS_I, GS_ONE, GS_ZERO, GaussScalar

from conftest import (
    identity_matrix,
    is_canonical,
    random_gauss,
    random_lagrangian,
    random_real_lagrangian,
    random_skew,
    reference_contains,
    reference_nullspace,
    reference_rref,
    reference_solve,
)

F = Fraction


def star(L1, L2):
    return products("tangent", L1, L2)


def conj(L):
    return transform("conjugate", None, L)


def dot(z, L):
    return transform("scalar_dot", z, L)


def real_rows(S):
    return Subspace(S.m, [list(r) for r in S.basis])


# -- subspaces and pairing ----------------------------------------------------


def test_subspace_canonical_form_and_membership():
    S = Subspace(2, [[F(1), F(2)], [F(2), F(4)]])
    assert S.dim == 1 and S.contains([F(3), F(6)])
    C = Subspace(2, [[GS_I, GS_ONE]])
    assert C.is_complex and not S.is_complex
    assert C.contains([GS_ONE, -GS_I])
    assert Subspace(3, []).dim == 0


def test_a_lagrangian_is_the_complex_subspace_of_its_rows(rng):
    assert issubclass(Lagrangian, Subspace)
    with pytest.raises(TypeError, match="Lagrangian.from_generators"):
        Lagrangian(1, Subspace(2, [[GS_ONE, GS_ZERO]]))
    for _ in range(6):
        n = rng.choice((1, 2, 3))
        L = random_lagrangian(rng, n)
        S = Subspace(2 * n, L.basis, is_complex=True)
        assert not hasattr(L, "space")
        assert L.m == 2 * n and L.rows == S.rows
        assert L == S and S == L and hash(L) == hash(S)
        # the field is part of the span: a real Subspace is another one
        real = hat(L)
        assert not real.is_complex and complexify_real(real) != real
        assert complexify_real(real) == Subspace(2 * n, real.basis, is_complex=True)


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
    # X + xi with xi(X) = 1 is not isotropic
    with pytest.raises(ValueError, match="not isotropic"):
        complexify_real(Subspace(2, [[1, 1]]))


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
        # the pairing <e + i e*, e + i e*> = i is purely imaginary
        Lagrangian.from_generators(1, [[GS_ONE, GS_I]])
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


def test_lagrangian_data_take_only_exact_entries():
    # ints, Fractions and GaussScalars; a float or a string is a TypeError,
    # never a silently parsed Fraction
    for bad in (0.1, "1/2"):
        with pytest.raises(TypeError):
            Subspace(2, [[bad, 0]])
        with pytest.raises(TypeError):
            Subspace(2, [[bad, GS_I]])
        with pytest.raises(TypeError):
            graph([[0, bad], [-1, 0]], "bivector")
        with pytest.raises(TypeError):
            transform("b_field", [[0, bad], [0, 0]], graph([[0, 1], [-1, 0]], "twoform"))
        with pytest.raises(TypeError):
            transform("scalar_dot", bad, graph([[0]], "bivector"))
        with pytest.raises(TypeError):
            images("backward", [[bad]], graph([[0]], "bivector"))
    assert Subspace(2, [[1, F(1, 2)]]) == Subspace(2, [[2, 1]])


def test_images_refuse_a_matrix_with_no_rows():
    # with no rows the domain size cannot be read off the matrix
    for kind in ("backward", "forward"):
        with pytest.raises(ValueError, match="shape 0x\\?"):
            images(kind, [], graph([[0, 1], [-1, 0]], "bivector"))


def test_lagrangian_data_of_the_wrong_shape_name_it():
    L = graph([[0, 1], [-1, 0]], "bivector")
    for call in (lambda: graph([[0, 1], [-1]], "bivector"),
                 lambda: transform("beta", [[0, 1], [-1]], L),
                 lambda: images("forward", [[1, 0], [1]], L),
                 lambda: images("backward", [[1], [1, 0]], L)):
        with pytest.raises(ValueError, match=r"lengths \[2, 1\]|lengths \[1, 2\]"):
            call()
    with pytest.raises(ValueError, match="shape 1x2"):
        graph([[0, 1]], "bivector")
    with pytest.raises(ValueError, match="shape 2x1"):
        transform("b_field", [[0], [0]], L)


def test_graph_rejects_non_skew():
    bad = [[GS_ZERO, GS_ONE], [GS_ONE, GS_ZERO]]
    with pytest.raises(ValueError, match="bivector datum must be skew-symmetric"):
        graph(bad, "bivector")
    # the kind is checked first: a misspelt one is named, skew datum or not
    for datum in ([[GS_ZERO, GS_ONE], [-GS_ONE, GS_ZERO]], bad):
        with pytest.raises(ValueError, match="unknown graph kind 'bivectr'"):
            graph(datum, "bivectr")


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


def test_element_with_tangent_lies_in_the_span_over_that_tangent(rng):
    # x is a complex combination of the tangent range, so the combination
    # solve finds has complex coefficients
    for _ in range(10):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        rows = [list(r) for r in L.basis]
        E = tangent_range(L).basis
        coefs = [random_gauss(rng) for _ in E]
        x = [sum((c * v[t] for c, v in zip(coefs, E)), GS_ZERO) for t in range(n)]
        el = element_with_tangent(rows, n, x)
        assert el[:n] == x and reference_contains(rows, el)


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


def test_range_form_refuses_inconsistent_and_non_skew_forms():
    # v_1 = 2 v_0, but eps(v_0, v_1) != 2 eps(v_0, v_0): no xi has xi|_E = i_X eps
    E_basis = [[GS_ONE, GS_ZERO], [GaussScalar.of(2), GS_ZERO]]
    with pytest.raises(ValueError, match="inconsistent"):
        lagrangian_from_range_form(E_basis, [[GS_ZERO, GS_ONE], [-GS_ONE, GS_ZERO]], 2)
    # a form that is not skew gives a subspace that is not isotropic
    with pytest.raises(ValueError, match="isotropic"):
        lagrangian_from_range_form([[GS_ONE, GS_ZERO]], [[GS_ONE]], 2)


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
    # the scalar 0 collapses the cotangent half: refused on a lagrangian,
    # kept as a smaller isotropic subspace otherwise
    with pytest.raises(ValueError, match="scalar_dot transform has dimension"):
        dot(GS_ZERO, L)
    line = Lagrangian.from_generators(2, [[GS_ONE, GS_ZERO, GS_ZERO, GS_ONE]], allow_partial=True)
    assert dot(GS_ZERO, line).dim == 1


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
    return Subspace(2 * L.n, [[x.re for x in r] for r in L.basis])


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
    rank = Subspace(n, [[x.re for x in r] for r in tangent_range(L).basis]).dim
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
        prKp = Subspace(n, [list(r[:n]) for r in Kp.basis])
        assert prKp == real_projection(tangent_range(L))
        assert K.dim + Kp.dim == 2 * n
        assert not any(pairing(k, x, n) for k in K.basis for x in Kp.basis)


def test_realify_doubles_dimension(rng):
    for _ in range(6):
        n = rng.choice((2, 3))
        L = random_lagrangian(rng, n)
        rows = realify(L)
        assert len(rows) == 2 * L.dim


def test_real_points_and_projection():
    E = Subspace(2, [[GS_ONE, GS_I]])
    assert real_points(E).dim == 0
    assert real_projection(E).dim == 2
    E2 = Subspace(2, [[GS_ONE, GS_ZERO]])
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
    rows, _ = reference_rref(rows)
    k = len(rows)
    cons = [[r[c] for r in rows] for c in zero_cols]
    null = reference_nullspace(cons, k, F(1), F(0))
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
    null = reference_nullspace(cons, k1 + k2, GS_ONE, GS_ZERO)
    B2_off = [[GS_ZERO if lo <= s < hi else x for s, x in enumerate(r)] for r in B2]
    rows = [combine(w, list(B1) + B2_off, range(2 * n)) for w in null]
    return Lagrangian.from_generators(n, rows, allow_partial=True)


def ref_images(kind, A, L):
    nrows, mcols, B, k = len(A), len(A[0]), L.basis, L.dim
    if kind == "backward":
        n, m = nrows, mcols
        cons = [[A[t][c] for c in range(m)] + [-B[i][t] for i in range(k)] for t in range(n)]
        rows = []
        for sol in reference_nullspace(cons, m + k, GS_ONE, GS_ZERO):
            eta = combine(sol[m:], B, range(n, 2 * n))
            At_eta = [sum((A[t][c] * eta[t] for t in range(n)), GS_ZERO) for c in range(m)]
            rows.append(sol[:m] + At_eta)
        return Lagrangian.from_generators(m, rows, allow_partial=True)
    n, m = nrows, mcols
    cons = [[-A[t][c] for t in range(n)] + [B[i][m + c] for i in range(k)] for c in range(m)]
    rows = []
    for sol in reference_nullspace(cons, n + k, GS_ONE, GS_ZERO):
        X = combine(sol[n:], B, range(m))
        AX = [sum((A[t][c] * X[c] for c in range(m)), GS_ZERO) for t in range(n)]
        rows.append(AX + sol[:n])
    return Lagrangian.from_generators(n, rows, allow_partial=True)


def ref_kernel_space(L):
    n = L.n
    cons = [[r[n + t] for r in L.basis] for t in range(n)]
    null = reference_nullspace(cons, L.dim, GS_ONE, GS_ZERO)
    return Subspace(n, [combine(w, L.basis, range(n)) for w in null], is_complex=True)


def ref_bivector_of_graph(L):
    if not L.is_lagrangian:
        return None
    n = L.n
    cot = linalg.transpose([r[n:] for r in L.basis])
    cols = []
    for k in range(n):
        target = [GS_ONE if t == k else GS_ZERO for t in range(n)]
        combo = reference_solve(cot, [[t] for t in target], n, GS_ZERO)
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


# -- integer-row Subspace and Lagrangian against the GaussScalar ones ----------
#
# RefSubspace, RefLagrangian and the old_* functions are this module's code
# from before Subspace kept canonical integer rows: bases of GaussScalars or
# Fractions, re-reduced by a field-division rref on every build, isotropy by a GaussScalar
# matmul.  The new classes must give the same bases, dimensions, equalities
# and verdicts, and every constructor must leave canonical rows.


class RefSubspace:
    __slots__ = ("m", "basis", "is_complex")

    def __init__(self, m, gens, is_complex=False):
        for g in gens:
            if len(g) != m:
                raise ValueError(f"generator length {len(g)} != ambient {m}")
        self.is_complex = is_complex or any(isinstance(x, GaussScalar) for g in gens for x in g)
        if self.is_complex:
            rows = [ref_gauss_row(g) for g in gens]
        else:
            rows = [[x if isinstance(x, (int, F)) else F(x) for x in g] for g in gens]
        red, _ = reference_rref(rows)
        self.m = m
        self.basis = tuple(tuple(r) for r in red)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return reference_contains([list(r) for r in self.basis], list(v))

    def __eq__(self, other):
        return (
            isinstance(other, RefSubspace)
            and self.is_complex == other.is_complex
            and self.m == other.m
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.is_complex, self.m, self.basis))


class RefLagrangian:
    __slots__ = ("n", "space")

    def __init__(self, n, space):
        self.n = n
        self.space = space

    @classmethod
    def from_generators(cls, n, gens, allow_partial=False):
        space = RefSubspace(2 * n, gens, is_complex=True)
        if not ref_is_isotropic(space.basis, n):
            raise ValueError("generators do not span an isotropic subspace")
        if space.dim != n and not allow_partial:
            raise ValueError("not lagrangian")
        return cls(n, space)

    @property
    def basis(self):
        return self.space.basis

    @property
    def dim(self):
        return self.space.dim

    @property
    def is_lagrangian(self):
        return self.dim == self.n

    def contains(self, v):
        return self.space.contains(ref_gauss_row(v))

    def __eq__(self, other):
        return isinstance(other, RefLagrangian) and self.n == other.n and self.space == other.space

    def __hash__(self):
        return hash((self.n, self.space))


def ref_is_isotropic(basis, n):
    swapped = [r[n:] + r[:n] for r in basis]
    gram = linalg.matmul(basis, linalg.transpose(swapped))
    return not any(x for row in gram for x in row)


def ref_gauss_row(g):
    return [x if isinstance(x, GaussScalar) else GaussScalar.of(x) for x in g]


def ref_eliminate(rows, k):
    red, pivots = reference_rref(rows)
    return [r[k:] for r, c in zip(red, pivots) if c >= k]


def old_graph(datum, kind):
    A = [ref_gauss_row(r) for r in datum]
    n = len(A)
    if not linalg.is_skew(A):
        raise ValueError(f"{kind} datum must be skew-symmetric")
    rows = []
    for k in range(n):
        e = [GS_ONE if t == k else GS_ZERO for t in range(n)]
        if kind == "bivector":
            rows.append([A[i][k] for i in range(n)] + e)
        elif kind == "twoform":
            rows.append(e + [A[k][j] for j in range(n)])
        else:
            raise ValueError(f"unknown graph kind {kind!r}")
    return RefLagrangian.from_generators(n, rows)


def old_bivector_of_graph(L):
    n = L.n
    red, pivots = reference_rref([r[n:] + r[:n] for r in L.basis])
    if pivots != list(range(n)):
        return None
    return linalg.transpose([r[n:] for r in red])


def old_products(kind, L1, L2):
    if kind in ("complex_tangent", "complex_cotangent"):
        c1 = old_complexify_real(L1)
        twist = "scalar_dot" if kind == "complex_tangent" else "scalar_bullet"
        c2 = old_transform(twist, GS_I, old_complexify_real(L2))
        return old_products("tangent" if kind == "complex_tangent" else "cotangent", c1, c2)
    n = L1.n
    lo, hi = (0, n) if kind == "tangent" else (n, 2 * n)
    rows = [list(r[lo:hi] + r) for r in L1.basis]
    rows += [
        [-x for x in r[lo:hi]] + list(r[:lo]) + [GS_ZERO] * n + list(r[hi:])
        for r in L2.basis
    ]
    return RefLagrangian.from_generators(n, ref_eliminate(rows, n), allow_partial=True)


def old_complexify_real(S):
    if isinstance(S, RefLagrangian):
        return S
    return RefLagrangian.from_generators(
        S.m // 2, [[GaussScalar.of(x) for x in r] for r in S.basis], allow_partial=True
    )


def old_transform(kind, datum, L):
    n = L.n
    rows = []
    if kind == "b_field":
        B = [ref_gauss_row(r) for r in datum]
        if not linalg.is_skew(B):
            raise ValueError("b_field datum must be skew")
        adds = linalg.matmul([r[:n] for r in L.basis], B)
        for r, add in zip(L.basis, adds):
            rows.append(list(r[:n]) + [x + y for x, y in zip(r[n:], add)])
    elif kind == "beta":
        P = [ref_gauss_row(r) for r in datum]
        if not linalg.is_skew(P):
            raise ValueError("beta datum must be skew")
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
    return RefLagrangian.from_generators(n, rows, allow_partial=not L.is_lagrangian)


def old_realify(L):
    rows = []
    for r in L.basis:
        re, im, _ = linalg._scaled_gauss(r)
        rows.append(re + im)
        rows.append([-y for y in im] + re)
    return rows


def old_slice_real(L, zero_cols, keep_cols):
    cols = zero_cols + keep_cols
    rows = [[r[c] for c in cols] for r in old_realify(L)]
    return RefSubspace(len(keep_cols), ref_eliminate(rows, len(zero_cols)))


def old_hat(L):
    n = L.n
    return old_slice_real(L, list(range(2 * n, 3 * n)), list(range(n)) + list(range(3 * n, 4 * n)))


def old_check(L):
    n = L.n
    return old_slice_real(L, list(range(2 * n, 3 * n)), list(range(2 * n)))


def old_tilde(L):
    return old_products("complex_tangent", old_check(L), old_hat(L))


def old_hat_cot(L):
    n = L.n
    return old_slice_real(L, list(range(3 * n, 4 * n)), list(range(2 * n, 3 * n)) + list(range(n, 2 * n)))


def old_check_cot(L):
    n = L.n
    return old_slice_real(L, list(range(3 * n, 4 * n)), list(range(2 * n)))


def old_tilde_cot(L):
    return old_products("complex_cotangent", old_check_cot(L), old_hat_cot(L))


def old_tangent_range(L):
    return RefSubspace(L.n, [list(r[:L.n]) for r in L.basis], is_complex=True)


def old_real_points(E):
    m = E.m
    return old_slice_real(E, list(range(m, 2 * m)), list(range(m)))


def old_real_projection(E):
    rows = []
    for r in E.basis:
        re, im, _ = linalg._scaled_gauss(r)
        rows += [re, im]
    return RefSubspace(E.m, rows)


def old_kernel_space(L):
    n = L.n
    rows = [r[n:] + r[:n] for r in L.basis]
    return RefSubspace(n, ref_eliminate(rows, n), is_complex=True)


def old_indices(L):
    n = L.n
    E = old_tangent_range(L)
    return (
        old_slice_real(L, list(range(2 * n, 4 * n)), list(range(2 * n))).dim,
        E.dim, old_real_points(E).dim, old_real_projection(E).dim, old_kernel_space(L).dim,
    )


def old_is_quasi_real(L):
    E = old_tangent_range(L)
    return E == RefSubspace(L.n, old_real_projection(E).basis, is_complex=True)


def old_images(kind, A, L):
    A = [ref_gauss_row(r) for r in A]
    nrows, mcols, B = len(A), len(A[0]), L.basis
    if kind == "backward":
        n, m = nrows, mcols
        At, E = linalg.transpose(A), identity_matrix(m, GS_ONE, GS_ZERO)
        rows = [At[c] + E[c] + [GS_ZERO] * m for c in range(m)]
        adds = linalg.matmul([b[n:] for b in B], A)
        rows += [[-x for x in b[:n]] + [GS_ZERO] * m + a for b, a in zip(B, adds)]
        return RefLagrangian.from_generators(m, ref_eliminate(rows, n), allow_partial=True)
    n, m = nrows, mcols
    E = identity_matrix(n, GS_ONE, GS_ZERO)
    rows = [[-x for x in A[t]] + [GS_ZERO] * n + E[t] for t in range(n)]
    adds = linalg.matmul([b[:m] for b in B], linalg.transpose(A))
    rows += [list(b[m:]) + a + [GS_ZERO] * n for b, a in zip(B, adds)]
    return RefLagrangian.from_generators(n, ref_eliminate(rows, m), allow_partial=True)


def assert_canonical(S):
    """S (a Subspace or a Lagrangian) keeps canonical rows in reduced echelon
    form: the public constructor, fed its basis, gives the same rows."""
    assert type(S.rows) is tuple
    assert all(is_canonical(r, S.is_complex) for r in S.rows)
    assert Subspace(S.m, S.basis, S.is_complex).rows == S.rows


def same(S, R):
    """S and its reference R agree on basis (values and entry types) and dim."""
    assert_canonical(S)
    assert S.basis == R.basis and S.dim == R.dim
    assert [[type(x) for x in r] for r in S.basis] == [[type(x) for x in r] for r in R.basis]
    return True


def both(new, old):
    """new() and old() both raise ValueError, or both return; their results."""
    try:
        r_old = old()
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return None, None
    return new(), r_old


QI = st.builds(GaussScalar.of, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3))
QQ = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@st.composite
def generators(draw, m, entries):
    """0..5 generators of length m: random, zero, sparse, and combinations of
    earlier ones, so dependent and empty sets are common."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("random", "zero", "sparse", "combo")))
        if kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([0] * m)
        elif kind == "sparse":
            rows.append([draw(entries) if draw(st.booleans()) else 0 for _ in range(m)])
        else:
            rows.append([draw(entries) for _ in range(m)])
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subspace_matches_reference(data):
    m = data.draw(st.integers(1, 5))
    entries = data.draw(st.sampled_from((QQ, QI)))
    is_complex = data.draw(st.booleans())
    g1, g2 = data.draw(generators(m, entries)), data.draw(generators(m, entries))
    S1, S2 = Subspace(m, g1, is_complex), Subspace(m, g2, is_complex)
    R1, R2 = RefSubspace(m, g1, is_complex), RefSubspace(m, g2, is_complex)
    assert same(S1, R1) and same(S2, R2) and S1.is_complex == R1.is_complex
    assert (S1 == S2) == (R1 == R2)
    assert S1 == Subspace(m, list(S1.basis) + g1, S1.is_complex)
    if S1 == S2:
        assert hash(S1) == hash(S2)
    for v in g2 + [data.draw(st.lists(entries, min_size=m, max_size=m))]:
        assert S1.contains(v) == R1.contains(v)


@st.composite
def lagrangian_generators(draw):
    """(n, generators of C^{2n}): the basis of a random lagrangian, each row
    scaled, plus combinations of its rows and, sometimes, a random row that
    usually breaks isotropy; or a random set."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 4))
    L = random_lagrangian(rnd, n)
    scales = draw(st.lists(QI.filter(bool), min_size=n, max_size=n))
    rows = [[x * s for x in r] for r, s in zip(L.basis, scales)]
    rows = draw(st.lists(st.sampled_from(rows), max_size=n)) if draw(st.booleans()) else rows
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(QI), draw(QI)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    if draw(st.integers(0, 3)) == 0:
        rows.append(draw(st.lists(QI, min_size=2 * n, max_size=2 * n)))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(lagrangian_generators(), st.booleans())
def test_lagrangian_constructor_matches_reference(case, allow_partial):
    n, gens = case
    L, R = both(lambda: Lagrangian.from_generators(n, gens, allow_partial),
                lambda: RefLagrangian.from_generators(n, gens, allow_partial))
    if L is None:
        return
    assert same(L, R) and L.is_lagrangian == R.is_lagrangian
    assert L == Lagrangian.from_generators(n, list(L.basis), allow_partial)
    assert hash(L) == hash(Lagrangian.from_generators(n, list(L.basis), allow_partial))
    for v in gens[:2] + [[GS_ONE] * (2 * n)]:
        assert L.contains(v) == R.contains(v)


def ref_of(L):
    return RefLagrangian.from_generators(L.n, list(L.basis), allow_partial=True)


@settings(max_examples=60, deadline=None)
@given(isotropics())
def test_families_match_reference(L):
    R = ref_of(L)
    for new, old in ((hat, old_hat), (check, old_check), (hat_cot, old_hat_cot),
                     (check_cot, old_check_cot), (tangent_range, old_tangent_range),
                     (kernel_space, old_kernel_space)):
        assert same(new(L), old(R))
    assert same(tilde(L), old_tilde(R)) and same(tilde_cot(L), old_tilde_cot(R))
    E, RE = tangent_range(L), old_tangent_range(R)
    assert same(real_points(E), old_real_points(RE))
    assert same(real_projection(E), old_real_projection(RE))
    rec = indices(L)
    assert (rec.real_index, rec.dim_range, rec.dim_delta, rec.dim_D, rec.kernel_dim) == old_indices(R)
    assert is_quasi_real(L) == old_is_quasi_real(R)
    assert bivector_of_graph(L) == old_bivector_of_graph(R)
    assert same(complexify_real(check(L)), old_complexify_real(old_check(R)))
    assert len(realify(L)) == 2 * L.dim
    for S in k_and_perp(L):
        assert_canonical(S)


# -- complex products: one real elimination against the twisted route ----------


@st.composite
def real_lagrangians(draw, n):
    """A real lagrangian of R^{2n}: a real slice of a random complex
    lagrangian (check, hat, check_cot or hat_cot), or the real span of a
    random real one, which also comes as its complexification."""
    rnd = draw(st.randoms(use_true_random=False))
    how = draw(st.sampled_from(("check", "hat", "check_cot", "hat_cot", "real", "complexified")))
    if how in ("real", "complexified"):
        S = real_rows_of(random_real_lagrangian(rnd, n))
        return S if how == "real" else complexify_real(S)
    return {"check": check, "hat": hat, "check_cot": check_cot, "hat_cot": hat_cot}[how](random_lagrangian(rnd, n))


def twisted_product(kind, S1, S2):
    """The complex product by the route the package took before: complexify
    both factors, twist the second by i on its summed half, then take the
    base product."""
    twist, base = ("scalar_dot", "tangent") if kind == "complex_tangent" else ("scalar_bullet", "cotangent")
    return products(base, complexify_real(S1), transform(twist, GS_I, complexify_real(S2)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(real_lagrangians(n), real_lagrangians(n), isotropics(n))))
def test_complex_products_match_the_twisted_route(case):
    S1, S2, L = case
    for kind in ("complex_tangent", "complex_cotangent"):
        P = products(kind, S1, S2)
        assert_canonical(P)
        assert P == twisted_product(kind, S1, S2)
    assert tilde(L) == twisted_product("complex_tangent", check(L), hat(L))
    assert tilde_cot(L) == twisted_product("complex_cotangent", check_cot(L), hat_cot(L))


def test_complex_products_keep_their_refusals():
    real = check(random_lagrangian(random.Random(5), 2))
    not_real = re.escape("expected a real Subspace of R^{2n}")
    refused = [
        (Subspace(4, [[GS_ONE, GS_I, 0, 0]]), not_real),
        (Subspace(4, [], is_complex=True), not_real),
        (Subspace(3, [[1, 0, 0]]), not_real),
        # X + xi with xi(X) = 1
        (Subspace(4, [[1, 0, 1, 0]]), "the real subspace is not isotropic"),
        (check(random_lagrangian(random.Random(5), 3)), "ambient dimension mismatch"),
    ]
    for kind in ("complex_tangent", "complex_cotangent"):
        for bad, message in refused:
            for pair in ((bad, real), (real, bad)):
                with pytest.raises(ValueError, match=message):
                    twisted_product(kind, *pair)
                with pytest.raises(ValueError, match=message):
                    products(kind, *pair)
        # a complex lagrangian is not a complexification: refused here,
        # where the twisted route took it as it was
        with pytest.raises(ValueError, match="complex Lagrangian"):
            products(kind, real, graph([[0, GS_I], [-GS_I, 0]], "bivector"))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(isotropics(n), isotropics(n))))
def test_products_match_reference(pair):
    L1, L2 = pair
    R1, R2 = ref_of(L1), ref_of(L2)
    for kind in ("tangent", "cotangent"):
        assert same(products(kind, L1, L2), old_products(kind, R1, R2))
    for kind in ("complex_tangent", "complex_cotangent"):
        assert same(products(kind, check(L1), hat(L2)), old_products(kind, old_check(R1), old_hat(R2)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transforms_and_images_match_reference(data):
    L = data.draw(isotropics())
    R, n = ref_of(L), L.n
    skew = [[GS_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = data.draw(QI)
            skew[j][i] = -skew[i][j]
    # a non-skew datum must be refused
    bad = [list(r) for r in skew]
    bad[0][0] = GS_ONE if data.draw(st.booleans()) else GS_ZERO
    z = data.draw(st.one_of(QI, QQ))
    for kind, datum in (("b_field", skew), ("beta", skew), ("b_field", bad), ("beta", bad),
                        ("scalar_dot", z), ("scalar_bullet", z), ("conjugate", None)):
        T, RT = both(lambda: transform(kind, datum, L), lambda: old_transform(kind, datum, R))
        assert T is None or same(T, RT)
    m = data.draw(st.integers(1, 4))
    A = data.draw(st.lists(st.lists(QI, min_size=m, max_size=m), min_size=n, max_size=n))
    assert same(images("backward", A, L), old_images("backward", A, R))
    L2 = data.draw(isotropics(m))
    assert same(images("forward", A, L2), old_images("forward", A, ref_of(L2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(QI, min_size=n, max_size=n), min_size=n, max_size=n)), st.booleans(),
    st.sampled_from(("bivector", "twoform")))
def test_graph_matches_reference(M, make_skew, kind):
    n = len(M)
    if make_skew:
        M = [[M[i][j] if i < j else -M[j][i] if i > j else GS_ZERO for j in range(n)] for i in range(n)]
    L, R = both(lambda: graph(M, kind), lambda: old_graph(M, kind))
    if L is not None:
        assert same(L, R)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(QQ, min_size=2 * n, max_size=2 * n), st.lists(QQ, min_size=2 * n, max_size=2 * n))))
def test_pairing_of_rationals_is_a_fraction(case):
    n, u, v = case
    p = pairing(u, v, n)
    assert type(p) is F
    assert GaussScalar.of(p) == pairing(ref_gauss_row(u), ref_gauss_row(v), n)


def test_pairing_of_ints_is_a_fraction():
    assert pairing([1, 0, 0, 1], [0, 1, 1, 0], 2) == F(1)
    assert type(pairing([1, 0, 0, 1], [0, 1, 1, 0], 2)) is F
    assert type(pairing([1, 0], [0, 1], 1)) is F


# -- dimensions of Delta and D from E -----------------------------------------
#
# Delta = E meet R^m and D = Re E complexify to E meet conj E and E + conj E,
# so dim Delta = 2 dim E - dim D.  indices, is_quasi_real and rank_profile
# read Delta's dimension, and quasi-reality, off E and D.


@st.composite
def complex_subspaces(draw):
    """A random complex subspace of C^m, m = 1..5; half of the time the
    conjugate-closed span of its generators and their conjugates."""
    m = draw(st.integers(1, 5))
    gens = draw(generators(m, QI))
    if draw(st.booleans()):
        gens += [[x.conjugate() for x in g] for g in gens]
    return Subspace(m, gens, is_complex=True)


@settings(max_examples=200, deadline=None)
@given(complex_subspaces())
def test_delta_dimension_is_twice_E_minus_D(E):
    D = real_projection(E)
    assert real_points(E).dim == 2 * E.dim - D.dim
    RE = RefSubspace(E.m, list(E.basis), is_complex=True)
    assert real_points(E).dim == old_real_points(RE).dim and D.dim == old_real_projection(RE).dim


@st.composite
def lagrangians_and_quasi_real_ones(draw):
    """A random lagrangian or isotropic subspace (see isotropics), or a
    quasi-real lagrangian: a real one, complexified or scaled by a complex z."""
    kind = draw(st.sampled_from(("any", "real", "scaled")))
    if kind == "any":
        return draw(isotropics())
    rnd = draw(st.randoms(use_true_random=False))
    L = random_real_lagrangian(rnd, draw(st.integers(1, 4)))
    return L if kind == "real" else transform("scalar_dot", draw(QI.filter(bool)), L)


@settings(max_examples=150, deadline=None)
@given(lagrangians_and_quasi_real_ones())
def test_indices_and_quasi_real_match_the_real_points_formulation(L):
    R = ref_of(L)
    rec = indices(L)
    assert (rec.real_index, rec.dim_range, rec.dim_delta, rec.dim_D, rec.kernel_dim) == old_indices(R)
    assert is_quasi_real(L) == old_is_quasi_real(R)
    if L.dim == L.n:
        # tilde(L) is a lagrangian, so only a lagrangian L can be its fixed point
        assert is_quasi_real(L) == (tilde(L) == L)


# -- one kept slice ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hat_check_tilde_indices_and_theorem_7_18_share_one_slice(monkeypatch, rng, n):
    # one realified slice of L, with its im tangent block zero, serves all
    # five, where each used to make its own; on a second Lagrangian with the
    # same rows, the same results come out of the calls in reverse order
    L = graph(random_skew(rng, n), "bivector")
    made = []
    slice_real = lagrangian._slice_real

    def recording(S, zero_cols, keep_cols):
        made.append(zero_cols)
        return slice_real(S, zero_cols, keep_cols)

    monkeypatch.setattr(lagrangian, "_slice_real", recording)
    calls = [hat, check, tilde, indices, _theorem_7_18]
    results = [f(L) for f in calls]
    assert made == [list(range(2 * n, 3 * n))]
    again = Lagrangian.from_generators(n, L.basis)
    assert [f(again) for f in reversed(calls)] == results[::-1]
    assert len(made) == 2
    # the slice reads of the oracles above, which slice L afresh
    R, rec = ref_of(L), results[3]
    assert results[:2] == [ref_hat(L), ref_check(L)] and same(results[2], old_tilde(R))
    assert (rec.real_index, rec.dim_range, rec.dim_delta, rec.dim_D, rec.kernel_dim) == old_indices(R)
    assert results[4] is True
