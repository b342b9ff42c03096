"""Exact linear algebra over Q and Q(i): single and block solves checked
against the rank criterion and the field-division inverse, nullspace
against the kernel, echelon's rows read as scalars against field-division
Gauss-Jordan and against sympy, eliminate against the echelon-then-filter
route it replaced; the real-pivot row update (Gaussian and real rows,
multipliers with a common factor) and
pivot normalization against GaussScalar arithmetic, real rows against the
same rows over Q(i) with zero imaginary parts, dense Gaussian-integer rows
against the rref, echelon of integer rows (tuples, width 0, zero imaginary
parts among them) against the rref and fed its own canonical rows, and the
width of the row updates of one dense beta-transform."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxpoisson import Subspace, graph, linalg, transform
from cxpoisson.lagrangian import _int_matrix
from cxpoisson.scalars import GaussScalar

from conftest import (
    identity_matrix,
    is_canonical,
    random_fraction,
    reference_contains,
    reference_matvec,
    reference_nullspace,
    reference_rank,
    reference_rref,
)

SMALL = st.integers(-3, 3)
FIELDS = {
    "Q": (SMALL.map(Fraction), Fraction(0)),
    "Q(i)": (st.builds(GaussScalar.of, SMALL, SMALL), GaussScalar.of(0)),
}


def int_rows(rows):
    """echelon's arguments for rows of Fractions or GaussScalars, over one
    denominator: (re, im) over Q(i), (re, None) over Q."""
    re, im, _ = _int_matrix(rows)
    return re, im if any(isinstance(x, GaussScalar) for r in rows for x in r) else None


def solved(ncols, rows, B):
    """solve's X for M X == B, read as scalars; None when inconsistent."""
    X = linalg.solve(ncols, *int_rows([list(r) + list(b) for r, b in zip(rows, B)]))
    return None if X is None else [linalg._scalars(r) for r in X]


@st.composite
def systems(draw, field):
    """(rows, rhs, ncols, zero); half the right-hand sides are M y, so the
    sample holds consistent systems as well as inconsistent ones."""
    entries, zero = FIELDS[field]
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        rhs = reference_matvec(rows, [draw(entries) for _ in range(ncols)])
    else:
        rhs = [draw(entries) for _ in range(nrows)]
    return rows, rhs, ncols, zero


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(systems))
def test_solve_is_exact_and_none_iff_inconsistent(system):
    rows, rhs, ncols, zero = system
    X = solved(ncols, rows, [[b] for b in rhs])
    x = None if X is None else [c for c, in X]
    aug = [r + [b] for r, b in zip(rows, rhs)]
    assert (x is None) == (reference_rank(aug) > reference_rank(rows))
    if x is not None:
        assert len(x) == ncols and reference_matvec(rows, x) == rhs


@st.composite
def block_systems(draw, field):
    """(rows, B, ncols, zero) with 0..3 right-hand-side columns, each column
    either M y (consistent) or random."""
    entries, zero = FIELDS[field]
    nrows, ncols, width = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    cols = []
    for _ in range(width):
        if draw(st.booleans()):
            cols.append(reference_matvec(rows, [draw(entries) for _ in range(ncols)]))
        else:
            cols.append([draw(entries) for _ in range(nrows)])
    B = [[c[i] for c in cols] for i in range(nrows)]
    return rows, B, ncols, zero


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(block_systems))
def test_block_solve_is_exact_and_none_iff_some_column_inconsistent(system):
    rows, B, ncols, zero = system
    X = solved(ncols, rows, B)
    aug = [r + b for r, b in zip(rows, B)]
    assert (X is None) == (reference_rank(aug) > reference_rank(rows))
    if X is not None:
        assert len(X) == ncols and all(len(r) == len(B[0]) for r in X)
        assert linalg.matmul(rows, X) == B


def reference_inverse(A, one, zero):
    """Matrix inverse by field-division Gauss-Jordan on [A | I]; None if
    singular: the inverse routine this package had before solve took a
    block."""
    n = len(A)
    aug = [list(A[i]) + identity_matrix(n, one, zero)[i] for i in range(n)]
    red, pivots = reference_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


@st.composite
def square_matrices(draw, field):
    """Square matrices, a third of them made singular by a combination row."""
    entries, zero = FIELDS[field]
    one = zero + 1
    n = draw(st.integers(1, 4))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        s = draw(entries)
        A[-1] = [s * x + y for x, y in zip(A[0], A[1 % (n - 1)])]
    return A, one, zero


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(square_matrices))
def test_solve_against_identity_is_the_inverse(case):
    A, one, zero = case
    n = len(A)
    inv = solved(n, A, identity_matrix(n, one, zero))
    assert inv == reference_inverse(A, one, zero)
    assert (inv is None) == (reference_rank(A) < n)


# -- echelon read as scalars against field-division Gauss-Jordan --------------


WIDE = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**4))
ENTRIES = {
    "Q": st.one_of(SMALL.map(Fraction), WIDE),
    "Q(i)": st.builds(GaussScalar, st.one_of(SMALL, WIDE), st.one_of(SMALL, WIDE)),
}


@st.composite
def matrices(draw, field):
    """Matrices with zero rows and rows that combine earlier ones, so rank
    deficiency and zero columns are common."""
    entries = ENTRIES[field]
    zero = FIELDS[field][1]
    ncols = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "sparse", "zero", "combo")))
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind == "sparse":
            rows.append([draw(entries) if draw(st.booleans()) else zero for _ in range(ncols)])
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices))
def test_rref_matches_field_division_gauss_jordan(rows):
    # echelon's canonical rows, read as scalars, are the rref
    red, pivots = linalg.echelon(*int_rows(rows))
    red = [linalg._scalars(r) for r in red]
    ref_red, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    assert red == ref_red
    assert [[type(x) for x in r] for r in red] == [[type(x) for x in r] for r in ref_red]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices))
def test_rref_matches_sympy_domain_matrix(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ, QQ_I = sympy.QQ, sympy.QQ_I
    if not rows or not rows[0]:
        return

    def to_sympy(x):
        z = x if isinstance(x, GaussScalar) else GaussScalar.of(x)
        return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))

    M = DomainMatrix([[to_sympy(x) for x in r] for r in rows], (len(rows), len(rows[0])), QQ_I)
    ref, ref_pivots = M.rref()
    red, pivots = linalg.echelon(*int_rows(rows))
    red = [linalg._scalars(r) for r in red]
    assert tuple(pivots) == tuple(ref_pivots)
    expected = [[from_sympy(q) for q in r] for r in ref.to_list()[: len(pivots)]]
    assert [[x if isinstance(x, GaussScalar) else GaussScalar.of(x) for x in r] for r in red] == expected


def from_sympy(q):
    """A GaussScalar from an element of sympy's QQ_I."""
    return GaussScalar.of(
        Fraction(int(q.x.numerator), int(q.x.denominator)),
        Fraction(int(q.y.numerator), int(q.y.denominator)),
    )


def test_scalar_entries_refuse_floats():
    # matmul, Subspace and graph take scalars; a float cannot be made exact
    with pytest.raises(TypeError):
        linalg.matmul([[0.5, Fraction(1)]], [[1], [1]])
    with pytest.raises(TypeError):
        Subspace(2, [[GaussScalar.of(1), 0.5]])
    with pytest.raises(TypeError):
        Subspace(2, [[Fraction(1), 2]]).contains([0.5, 1])
    with pytest.raises(TypeError):
        graph([[0, 0.5], [-0.5, 0]], "twoform")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices))
def test_nullspace_is_the_canonical_kernel(rows):
    ncols = len(rows[0]) if rows else 0
    is_complex = any(isinstance(x, GaussScalar) for r in rows for x in r)
    null = linalg.nullspace(ncols, *int_rows(rows))
    assert all(is_canonical(v, is_complex) for v in null)
    assert len(null) == ncols - reference_rank(rows)
    zero = FIELDS["Q(i)" if is_complex else "Q"][1]
    for v in null:
        assert reference_matvec(rows, linalg._scalars(v)) == [zero] * len(rows)
    assert [linalg._scalars(v) for v in null] == reference_rref(reference_nullspace(rows, ncols, zero + 1, zero))[0]


# -- echelon and eliminate ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices))
def test_echelon_rows_are_canonical_and_read_as_the_rref(rows):
    is_complex = any(isinstance(x, GaussScalar) for r in rows for x in r)
    red, pivots = linalg.echelon(*int_rows(rows))
    assert all(is_canonical(r, is_complex) for r in red)
    assert ([linalg._scalars(r) for r in red], pivots) == reference_rref(rows)
    # heads: the projection on the first k coordinates, already reduced
    for k in range(len(rows[0]) + 1 if rows else 0):
        heads = linalg._heads(red, k)
        assert all(is_canonical(h, is_complex) for h in heads)
        assert [linalg._scalars(h) for h in heads] == reference_rref([r[:k] for r in rows])[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices), st.data())
def test_eliminate_is_the_span_meeting_a_vanishing_head(rows, data):
    ncols = len(rows[0]) if rows else 0
    k = data.draw(st.integers(0, ncols))
    is_complex = any(isinstance(x, GaussScalar) for r in rows for x in r)
    canonical = linalg.eliminate(k, *int_rows(rows))
    assert all(is_canonical(t, is_complex) for t in canonical)
    tails = [linalg._scalars(t) for t in canonical]
    # dim(span ∩ {v[:k] = 0}) = rank(M) - rank(M[:, :k])
    assert len(tails) == reference_rank(rows) - reference_rank([r[:k] for r in rows])
    assert all(len(t) == ncols - k for t in tails)
    # each tail, padded with k zeros, lies in the span ...
    for t in tails:
        assert reference_contains(rows, [0] * k + t)
    # ... and the tails are already a reduced echelon basis, so independent
    assert reference_rref(tails)[0] == tails


def reference_eliminate(k, re_rows, im_rows=None):
    """The eliminate this package had before its head phase: echelon over
    every column, then the tails of the rows with pivot at or after k."""
    red, pivots = linalg.echelon(re_rows, im_rows)
    return [tuple(v[k:] for v in row[:-1]) + row[-1:] for row, c in zip(red, pivots) if c >= k]


@st.composite
def integer_systems(draw):
    """(k, re rows, im rows or None): unreduced integer rows, with zero rows,
    multiples and combinations of earlier rows, and every k from 0 to the
    width, which may be 0."""
    is_complex = draw(st.booleans())
    width = draw(st.integers(0, 7))
    entry = st.integers(-4, 4)
    re, im = [], []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("random", "sparse", "zero", "combo")))
        if kind == "zero":
            r, i = [0] * width, [0] * width
        elif kind == "combo" and re:
            pairs = st.sampled_from(list(zip(re, im)))
            (a, b), (c, d) = draw(pairs), draw(pairs)
            s, t = draw(entry), draw(entry)
            r, i = [s * x + t * y for x, y in zip(a, c)], [s * x + t * y for x, y in zip(b, d)]
        else:
            keep = [kind == "random" or draw(st.booleans()) for _ in range(width)]
            r = [draw(entry) if kp else 0 for kp in keep]
            i = [draw(entry) if kp and is_complex else 0 for kp in keep]
        re.append(r)
        im.append(i)
    return draw(st.integers(0, width)), re, im if is_complex else None


@settings(max_examples=400, deadline=None)
@given(integer_systems())
@example((0, [[2, 4, 6], [1, 2, 3]], None))  # k = 0, dependent rows
@example((3, [[2, 4, 6], [0, 0, 0]], None))  # k = width, a zero row
@example((2, [], None))  # no rows
@example((0, [[], []], [[], []]))  # width-0 rows
@example((1, [[2, 1, 0], [1, 0, 1]], [[3, 0, 1], [1, 1, 0]]))  # head pivots with q != 0
@example((0, [[], []], None))  # width-0 real rows
@example((1, [(1, 2, 3), (2, 0, 1)], None))  # tuple rows, as canonical rows are
@example((1, [(1, 0, 2), (0, 1, 1)], [(0, 0, 1), (1, 0, 0)]))  # tuple Gaussian rows
@example((1, [[1, 2, 0], [3, 1, 1]], [[0, 0, 0], [0, 0, 0]]))  # Gaussian rows with zero imaginary parts
# the first head pivot is i (p = 0, q = 1)
@example((2, [[0, 1, 1, 2], [1, 1, 0, 0], [1, 2, 1, 3]], [[1, 0, 0, 1], [2, 0, 1, 0], [0, 0, 1, 0]]))
def test_eliminate_equals_the_full_echelon_route(system):
    k, re, im = system
    expected = reference_eliminate(k, re, im)
    assert linalg.eliminate(k, re, im) == expected
    assert all(is_canonical(t, im is not None) for t in expected)


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example((0, [[], []], None))  # width-0 real rows
@example((0, [[], []], [[], []]))  # width-0 Gaussian rows
@example((0, [(2, 4, 0), (1, 3, 1)], None))  # tuple rows
@example((0, [(1, 0, 2), (0, 1, -1)], [(0, 0, 1), (0, 0, 3)]))  # canonical rows fed back
@example((0, [[2, 4, 1], [1, 3, 0]], [[0, 0, 0], [0, 0, 0]]))  # Gaussian rows with zero imaginary parts
def test_echelon_is_the_rref_and_fixes_its_own_rows(system):
    _, re, im = system
    if im is None:
        rows = [[Fraction(a) for a in r] for r in re]
    else:
        rows = [[GaussScalar.of(a, b) for a, b in zip(r, i)] for r, i in zip(re, im)]
    red, pivots = linalg.echelon(re, im)
    assert all(is_canonical(r, im is not None) for r in red)
    assert ([linalg._scalars(r) for r in red], pivots) == reference_rref(rows)
    # the canonical rows, which are tuples, are their own echelon form
    again = linalg.echelon([r[0] for r in red], None if im is None else [r[1] for r in red])
    assert again == (red, pivots)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(st.integers(-2, 2), min_size=w, max_size=w),
                                                    min_size=4, max_size=4)),
       st.sampled_from([1, 2, 3, 6, 12]))
@example([[2, 1], [0, 1], [4, 3], [6, 1]], 1)  # gcd(p, f, h) == 2 from the draw itself
@example([[1, 0], [0, 0], [1, 1], [0, 2]], 6)  # f, h = 6, 0: a real entry in a Gaussian row
def test_cleared_row_is_the_primitive_fraction_free_update(rows, s):
    # the update of echelon and of eliminate's head phase against a real
    # pivot p: row k times p minus the pivot row times row k's entry, over
    # its gcd; a Gaussian row is the one list [re | im], i times the pivot
    # row is [-im | re], and a real row takes the same update with h == 0.
    # The pivot entry and row k's entry are scaled by s, so p, f and h share
    # a factor, which the update divides out first: the row is the same
    pre, pim, kre, kim = rows
    pre[0], pim[0] = s * (pre[0] or 1), 0
    kre[0], kim[0] = s * kre[0], s * kim[0]
    p = pre[0]
    i_pivot = [-y for y in pim] + pre

    def reference(kim):
        z = [GaussScalar.of(a, b) for a, b in zip(kre, kim)]
        w = [GaussScalar.of(a, b) for a, b in zip(pre, pim)]
        full = [p * x - z[0] * y for x, y in zip(z, w)]
        parts = [int(x.re) for x in full], [int(x.im) for x in full]
        g = gcd(*parts[0], *parts[1]) or 1
        return [x // g for part in parts for x in part]

    assert linalg._cleared(p, pre + pim, i_pivot, kre[0], kim[0], kre + kim) == reference(kim)
    # a Gaussian row whose entry at the pivot is real: h == 0, and no iP is
    # read, as none is formed for a pivot that clears only such rows
    real_entry = [0] + kim[1:]
    assert linalg._cleared(p, pre + pim, None, kre[0], 0, kre + real_entry) == reference(real_entry)
    # a real row against a real pivot row: no imaginary half and no iP
    real = [p * x - kre[0] * y for x, y in zip(kre, pre)]
    assert linalg._cleared(p, pre, None, kre[0], 0, kre) == [x // (gcd(*real) or 1) for x in real]


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example((1, [(1, 2, 3), (2, 0, 1)], None))  # tuple rows, as canonical rows are
@example((0, [[], []], None))  # width-0 real rows
def test_real_rows_reduce_as_gaussian_rows_with_zero_imaginary_part(system):
    # a real row is a Gaussian row with no imaginary half: over Q and over
    # Q(i) on (re, zeros) the kernel gives the same rows, (ints, d) against
    # (ints, zeros, d)
    k, re, _ = system
    zeros = [[0] * len(r) for r in re]

    def as_real(rows):
        assert all(not any(im) for _, im, _ in rows)
        return [(ints, d) for ints, _, d in rows]

    red, pivots = linalg.echelon(re)
    cx_red, cx_pivots = linalg.echelon(re, zeros)
    assert (red, pivots) == (as_real(cx_red), cx_pivots)
    assert linalg.eliminate(k, re) == as_real(linalg.eliminate(k, re, zeros))


GAUSS_INT = st.integers(-(2**6), 2**6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda w: st.tuples(
    st.lists(GAUSS_INT, min_size=w, max_size=w), st.lists(GAUSS_INT, min_size=w, max_size=w),
    st.integers(0, w - 1))))
def test_real_pivot_keeps_the_complex_line(case):
    re, im, c = case
    if not (re[c] or im[c]):
        im[c] = 1
    out = linalg._real_pivot(re + im, c, len(re))
    out_re, out_im = out[:len(re)], out[len(re):]
    row = [GaussScalar.of(a, b) for a, b in zip(re, im)]
    assert reference_rref([[GaussScalar.of(a, b) for a, b in zip(out_re, out_im)]]) == reference_rref([row])
    assert out_re[c] > 0 and out_im[c] == 0
    assert gcd(*out_re, *out_im) == 1


@st.composite
def dense_gauss_rows(draw):
    """Dense Gaussian-integer rows, up to 8 x 16 with entries up to 2^6 in
    absolute value, so complex pivots meet complex entries at every step;
    a third of them get a last row that combines the first two."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    re = [[draw(GAUSS_INT) for _ in range(ncols)] for _ in range(nrows)]
    im = [[draw(GAUSS_INT) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and draw(st.integers(0, 2)) == 0:
        s = draw(GAUSS_INT)
        re[-1] = [s * x + y for x, y in zip(re[0], re[1])]
        im[-1] = [s * x + y for x, y in zip(im[0], im[1])]
    return draw(st.integers(0, ncols)), re, im


@settings(max_examples=40, deadline=None)
@given(dense_gauss_rows())
def test_dense_gauss_echelon_and_eliminate_match_the_rref(case):
    k, re, im = case
    rows = [[GaussScalar.of(a, b) for a, b in zip(r, i)] for r, i in zip(re, im)]
    ref_red, ref_pivots = reference_rref(rows)
    red, pivots = linalg.echelon(re, im)
    assert all(is_canonical(r, True) for r in red)
    assert ([linalg._scalars(r) for r in red], pivots) == (ref_red, ref_pivots)
    # the rref rows with pivot at or after k are zero before k: their tails
    # are the canonical basis of the span meeting {v[:k] == 0}
    tails = [r[k:] for r, c in zip(ref_red, ref_pivots) if c >= k]
    assert [linalg._scalars(t) for t in linalg.eliminate(k, re, im)] == tails
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ZZ_I = sympy.ZZ_I
    M = DomainMatrix([[ZZ_I(a, b) for a, b in zip(r, i)] for r, i in zip(re, im)], (len(re), len(re[0])), ZZ_I)
    ref, sympy_pivots = M.to_field().rref()
    assert tuple(pivots) == tuple(sympy_pivots)
    assert [linalg._scalars(r) for r in red] == [[from_sympy(q) for q in r] for r in ref.to_list()[: len(pivots)]]


def _skew(rng, n):
    """n x n skew matrix with entries a/b + (c/d) i, a, c in -3..3, b, d in 1..2."""
    M = [[GaussScalar.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = GaussScalar.of(random_fraction(rng, 3, 2), random_fraction(rng, 3, 2))
            M[i][j], M[j][i] = v, -v
    return M


def test_dense_beta_transform_keeps_row_updates_narrow(monkeypatch):
    # a pivot left complex leaves a Gaussian factor in every row it clears,
    # which no integer gcd removes: on this case such updates reach 5,223
    # bits for an answer of 63
    rng = random.Random(3)
    n = 8
    A, B, P = _skew(rng, n), _skew(rng, n), _skew(rng, n)
    L = transform("b_field", B, graph(A, "bivector"))
    widest = [0]
    cleared = linalg._cleared

    def recording(*args):
        out = cleared(*args)
        widest[0] = max(widest[0], *(abs(x).bit_length() for x in out))
        return out

    monkeypatch.setattr(linalg, "_cleared", recording)
    result = transform("beta", P, L)
    gens = [
        [x + y for x, y in zip(r[:n], add)] + list(r[n:])
        for r, add in zip(L.basis, linalg.matmul([r[n:] for r in L.basis], linalg.transpose(P)))
    ]
    assert [linalg._scalars(r) for r in result.rows] == reference_rref(gens)[0]
    assert 0 < widest[0] <= 256
