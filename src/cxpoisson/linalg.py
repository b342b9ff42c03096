"""Exact linear algebra over Q (Fraction) and Q(i) (GaussScalar).

The one reduction is echelon, fraction-free Gauss-Jordan on integer rows,
and its rows come out canonical: a complex row is the tuple (re, im, d), the
vector (re + i im)/d with d > 0, pivot entry (d, 0) and gcd(re, im, d) == 1;
a real row is (ints, d) alike.  A span has one canonical basis, so span
equality is tuple equality.  One kernel reduces both fields: inside it a
Gaussian row is one integer list [re | im], and a real row is a Gaussian
row with no imaginary half.  Over Q(i) every pivot is made real before it
is used, so a row update multiplies a row by a rational integer, which the
integer gcd of the updated row removes again; a complex pivot would leave in
the row a Gaussian factor such as 2 + i, which no integer gcd can see, and
such factors would pile up at every step.  With the real pivot row P and i P
formed once per pivot, clearing the entry f + h i of a row K is one list,
p K - f P - h (i P), and one gcd; a real row is cleared by the same update
with h = 0, which needs no i P.  eliminate, the one intersect-and-project
step, returns the canonical tails after the k head coordinates that must
vanish, in two phases: the head phase clears each head column with
echelon's row update, on full-width rows, and drops that column's pivot
row, which is never reduced; the tail phase slices the tails of the rows
left once and reduces them as echelon does.  They span the intersection,
and echelon gives a span its one canonical basis, so the tails are those
the full echelon would have.
solve and nullspace take integer rows as echelon does.  solve(ncols, [M | B])
reads the block X with M X == B off one echelon, where each pivot entry is
(d, 0): row c of X is the B part of the row with pivot c, and None comes
back when a pivot lies in B.  nullspace is one eliminate over the rows
(column c of M | e_c), which span the pairs (M x, x): the tails left once
the heads M x vanish are the kernel's canonical basis.  Of the rest, matmul
takes Fractions and GaussScalars,
_scaled_gauss puts such a row over one denominator, and _scalars reads a
canonical row back as them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .scalars import GS_ZERO, GaussScalar, _make

Row = List
Matrix = List[Row]

_F0 = Fraction(0)


def echelon(re_rows, im_rows=None) -> Tuple[List[tuple], List[int]]:
    """Canonical reduced row echelon form of the integer rows re_rows (over
    Q) or re_rows + i im_rows (over Q(i)); returns (canonical rows, pivots).

    A row update is r_k <- p r_k - f r_pivot, p the pivot and f the entry
    cleared, divided by the gcd of its entries; over Q(i) the pivot row is
    first multiplied by the conjugate of its pivot, so p is a rational
    integer.  Pivot rows are made canonical once, at the end."""
    m, w, cx = _rows(re_rows, im_rows)
    return _canonical(m, _reduce(m, w, cx), w, cx)


def _rows(re_rows, im_rows) -> Tuple[list, int, bool]:
    """(rows, width, over Q(i)): the rows [re | im] as lists over Q(i), the
    rows as they are over Q."""
    w = len(re_rows[0]) if re_rows else 0
    if im_rows is None:
        return list(re_rows), w, False
    return [[*re, *im] for re, im in zip(re_rows, im_rows)], w, True


def _reduce(m: list, w: int, cx: bool) -> List[int]:
    """Gauss-Jordan on the rows m of width w, fused [re | im] when cx, in
    place; the pivot columns."""
    nrows = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(w):
        for pr in range(r, nrows):
            P = m[pr]
            if P[c] or cx and P[w + c]:
                break
        else:
            continue
        P, p, iP = _pivot(P, c, w, cx)
        m[pr] = m[r]
        m[r] = P
        for k in range(nrows):
            K = m[k]
            f = K[c]
            h = K[w + c] if cx else 0
            if (f or h) and k != r:
                m[k] = _cleared(p, P, iP, f, h, K)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _canonical(m: list, pivots: List[int], w: int, cx: bool) -> Tuple[List[tuple], List[int]]:
    """The canonical rows of the pivot rows of a reduced m: over their
    signed gcd, as (re, im, d) over Q(i) and (ints, d) over Q."""
    out = []
    for row, c in zip(m, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        out.append((tuple(row[:w]), tuple(row[w:]), row[c]) if cx else (tuple(row), row[c]))
    return out, pivots


def eliminate(k: int, re_rows, im_rows=None) -> List[tuple]:
    """Canonical basis of {v in span(rows) : v[:k] == 0}, given by the tails
    v[k:], for integer rows as in echelon.

    Head phase: for each of the first k columns, a row nonzero there clears
    it in the other rows (echelon's update) and is dropped.  The rows left
    are zero in that column, so a vector of the span is zero there exactly
    when it takes none of the dropped row: the rows left span the
    intersection with {v[c] == 0}.  The rows keep their full width, and the
    dropped pivot rows are never reduced.  Tail phase: the tails of the rows
    left, sliced once, are reduced as in echelon, which gives them their
    canonical basis, the one the span has."""
    m, w, cx = _rows(re_rows, im_rows)
    for c in range(k):
        for pr, P in enumerate(m):
            if P[c] or cx and P[w + c]:
                break
        else:
            continue
        del m[pr]
        P, p, iP = _pivot(P, c, w, cx)
        for j, K in enumerate(m):
            f = K[c]
            h = K[w + c] if cx else 0
            if f or h:
                m[j] = _cleared(p, P, iP, f, h, K)
    # a real row has no imaginary half: row[w + k:] is empty
    m = [row[k:w] + row[w + k:] for row in m]
    return _canonical(m, _reduce(m, w - k, cx), w - k, cx)[0]


def _pivot(P, c: int, w: int, cx: bool) -> Tuple[list, int, Optional[List[int]]]:
    """(P, p, iP) for the pivot row P at column c: over Q(i) the fused row
    made real at c, so its pivot entry p is a rational integer, and i P =
    [-im | re], formed once for all the rows it clears; over Q the row, its
    pivot entry and None."""
    if not cx:
        return P, P[c], None
    if P[w + c]:
        P = _real_pivot(P, c, w)
    return P, P[c], [-y for y in P[w:]] + P[:w]


def _real_pivot(row: List[int], c: int, w: int) -> List[int]:
    """The fused row [re | im] of width w times the conjugate p - q i of its
    entry p + q i at c, over its gcd: the same complex line, with the
    positive integer |p + q i|^2/g at c."""
    p, q = row[c], row[w + c]
    re, im = row[:w], row[w:]
    out = [p * x + q * y for x, y in zip(re, im)] + [p * y - q * x for x, y in zip(re, im)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _cleared(p: int, P, iP: Optional[List[int]], f: int, h: int, K) -> List[int]:
    """p K - (f + h i) P, primitive: the row K with its entry f + h i cleared
    against the real pivot entry p of the row P, iP being i P.  A real row
    is cleared by the same update with h == 0, which reads no iP."""
    if h:
        row = [p * x - f * u - h * v for x, u, v in zip(K, P, iP)]
    else:
        row = [p * x - f * u for x, u in zip(K, P)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _heads(rows: Sequence[tuple], k: int) -> List[tuple]:
    """Canonical basis of the projection of span(rows) on the first k
    coordinates: the heads of the rows with pivot before k, over their gcd."""
    out = []
    for *parts, d in rows:
        heads = [v[:k] for v in parts]
        if any(heads[0]):
            g = gcd(*heads[0], *heads[-1])
            out.append(tuple(tuple(x // g for x in v) for v in heads) + (d // g,))
    return out


def _scalars(row: tuple) -> Row:
    """The entries of a canonical row: Fractions over Q, GaussScalars over Q(i)."""
    if len(row) == 2:
        ints, d = row
        return [Fraction(x, d) if x else _F0 for x in ints]
    re, im, d = row
    return [_make(a, b, d) if a or b else GS_ZERO for a, b in zip(re, im)]


def _scaled_gauss(row: Sequence) -> Tuple[List[int], List[int], int]:
    """(re, im, den) with row == (re + i im) / den, for a row of
    GaussScalars, ints and Fractions."""
    try:
        abd = [x.abd if type(x) is GaussScalar else (x.numerator, 0, x.denominator) for x in row]
    except AttributeError:
        raise TypeError(f"expected int, Fraction or GaussScalar entries, got {row!r}") from None
    den = lcm(*(d for _, _, d in abd))
    return [a * (den // d) for a, _, d in abd], [b * (den // d) for _, b, d in abd], den


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def nullspace(ncols: int, re_rows, im_rows=None) -> List[tuple]:
    """Canonical basis of {x : M x = 0}, M given by integer rows of length
    ncols as in echelon: one eliminate over the rows (column c of M | e_c),
    which span the pairs (M x, x), with the heads M x made to vanish."""
    re = [[row[c] for row in re_rows] + [int(f == c) for f in range(ncols)] for c in range(ncols)]
    im = None if im_rows is None else [[row[c] for row in im_rows] + [0] * ncols for c in range(ncols)]
    return eliminate(len(re_rows), re, im)


def solve(ncols: int, re_rows, im_rows=None) -> Optional[List[tuple]]:
    """X with M X == B, from one echelon of the integer rows of [M | B] (as
    echelon takes them), M of ncols columns and B of one column per
    right-hand side.  X has ncols rows, each as a canonical row is read:
    (ints, d) over Q, (re, im, d) over Q(i).  Row c is the B part of the
    row with pivot c, whose pivot entry is (d, 0); the free unknowns are
    zero.  None if any column of B is inconsistent: a pivot in B."""
    red, pivots = echelon(re_rows, im_rows)
    if pivots and pivots[-1] >= ncols:
        return None
    zero = (0,) * (len(re_rows[0]) - ncols if re_rows else 0)
    X = [(zero, 1) if im_rows is None else (zero, zero, 1)] * ncols
    for (*parts, d), c in zip(red, pivots):
        X[c] = tuple(p[ncols:] for p in parts) + (d,)
    return X


def matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    """A B for entries that are ints, Fractions or GaussScalars; the result is
    GaussScalars when any entry is one, else Fractions.  Each row of A and
    column of B is put over one denominator, so every entry costs one integer
    dot product (two, four over Q(i)) and one reduction."""
    cols = list(zip(*B))
    rows_g = [_scaled_gauss(r) for r in A]
    cols_g = [_scaled_gauss(c) for c in cols]
    if any(type(x) is GaussScalar for M in (A, cols) for r in M for x in r):
        return [
            [
                _make(_dot(xr, yr) - _dot(xi, yi), _dot(xr, yi) + _dot(xi, yr), dx * dy)
                for yr, yi, dy in cols_g
            ]
            for xr, xi, dx in rows_g
        ]
    return [[Fraction(_dot(xr, yr), dx * dy) for yr, _, dy in cols_g] for xr, _, dx in rows_g]


def transpose(A: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*A)]


def is_skew(A: Sequence[Sequence]) -> bool:
    n = len(A)
    return all(A[i][j] == -A[j][i] for i in range(n) for j in range(i, n))
