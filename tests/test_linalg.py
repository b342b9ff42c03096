"""Exact linear algebra over Q and Q(i): single and block solves checked
against the rank criterion and the old inverse, rref against
field-division Gauss-Jordan and against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import linalg
from cxpoisson.scalars import GaussScalar

SMALL = st.integers(-3, 3)
FIELDS = {
    "Q": (SMALL.map(Fraction), Fraction(0)),
    "Q(i)": (st.builds(GaussScalar.of, SMALL, SMALL), GaussScalar.of(0)),
}


@st.composite
def systems(draw, field):
    """(rows, rhs, ncols, zero); half the right-hand sides are M y, so the
    sample holds consistent systems as well as inconsistent ones."""
    entries, zero = FIELDS[field]
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        rhs = linalg.matvec(rows, [draw(entries) for _ in range(ncols)])
    else:
        rhs = [draw(entries) for _ in range(nrows)]
    return rows, rhs, ncols, zero


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(systems))
def test_solve_is_exact_and_none_iff_inconsistent(system):
    rows, rhs, ncols, zero = system
    X = linalg.solve(rows, [[b] for b in rhs], ncols, zero)
    x = None if X is None else [c for c, in X]
    aug = [r + [b] for r, b in zip(rows, rhs)]
    assert (x is None) == (linalg.rank(aug) > linalg.rank(rows))
    if x is not None:
        assert len(x) == ncols and linalg.matvec(rows, x) == rhs


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
            cols.append(linalg.matvec(rows, [draw(entries) for _ in range(ncols)]))
        else:
            cols.append([draw(entries) for _ in range(nrows)])
    B = [[c[i] for c in cols] for i in range(nrows)]
    return rows, B, ncols, zero


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(block_systems))
def test_block_solve_is_exact_and_none_iff_some_column_inconsistent(system):
    rows, B, ncols, zero = system
    X = linalg.solve(rows, B, ncols, zero)
    aug = [r + b for r, b in zip(rows, B)]
    assert (X is None) == (linalg.rank(aug) > linalg.rank(rows))
    if X is not None:
        assert len(X) == ncols and all(len(r) == len(B[0]) for r in X)
        assert linalg.matmul(rows, X) == B


def reference_inverse(A, one, zero):
    """Matrix inverse by Gauss-Jordan on [A | I]; None if singular: the
    inverse routine this package had before solve took a block."""
    n = len(A)
    aug = [list(A[i]) + linalg.identity(n, one, zero)[i] for i in range(n)]
    red, pivots = linalg.rref(aug)
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
    inv = linalg.solve(A, linalg.identity(n, one, zero), n, zero)
    assert inv == reference_inverse(A, one, zero)
    assert (inv is None) == (linalg.rank(A) < n)


# -- rref against field-division Gauss-Jordan ----------------------------------


def reference_rref(rows):
    """Field-division Gauss-Jordan, leftmost pivot, leading ones: the rref
    this package used before its integer elimination."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for k in range(r, len(m)):
            if m[k][c]:
                pr = k
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


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
    red, pivots = linalg.rref(rows)
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

    def from_sympy(q):
        return GaussScalar.of(
            Fraction(int(q.x.numerator), int(q.x.denominator)),
            Fraction(int(q.y.numerator), int(q.y.denominator)),
        )

    M = DomainMatrix([[to_sympy(x) for x in r] for r in rows], (len(rows), len(rows[0])), QQ_I)
    ref, ref_pivots = M.rref()
    red, pivots = linalg.rref(rows)
    assert tuple(pivots) == tuple(ref_pivots)
    expected = [[from_sympy(q) for q in r] for r in ref.to_list()[: len(pivots)]]
    assert [[x if isinstance(x, GaussScalar) else GaussScalar.of(x) for x in r] for r in red] == expected


def test_rref_refuses_entries_it_cannot_make_exact():
    with pytest.raises(TypeError):
        linalg.rref([[0.5, Fraction(1)]])
    with pytest.raises(TypeError):
        linalg.rref([[GaussScalar.of(1), 0.5]])


# -- eliminate -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(matrices), st.data())
def test_eliminate_is_the_span_meeting_a_vanishing_head(rows, data):
    ncols = len(rows[0]) if rows else 0
    k = data.draw(st.integers(0, ncols))
    tails = linalg.eliminate(rows, k)
    # dim(span ∩ {v[:k] = 0}) = rank(M) - rank(M[:, :k])
    assert len(tails) == linalg.rank(rows) - linalg.rank([r[:k] for r in rows])
    assert all(len(t) == ncols - k for t in tails)
    # each tail, padded with k zeros, lies in the span ...
    for t in tails:
        assert linalg.member([0] * k + t, linalg.rref(rows)[0])
    # ... and the tails are already a reduced echelon basis, so independent
    assert linalg.rref(tails)[0] == tails
