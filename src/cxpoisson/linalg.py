"""Exact linear algebra over Q (Fraction) and Q(i) (GaussScalar).

The one reduction is echelon, fraction-free Gauss-Jordan on integer rows,
and its rows come out canonical: a complex row is the tuple (re, im, d), the
vector (re + i im)/d with d > 0, pivot entry (d, 0) and gcd(re, im, d) == 1;
a real row is (ints, d) alike.  A span has one canonical basis, so span
equality is tuple equality.  Over Q(i) every pivot is made real before it is
used, so a row update multiplies a row by a rational integer, which the
integer gcd of the updated row removes again; a complex pivot would leave in
the row a Gaussian factor such as 2 + i, which no integer gcd can see, and
such factors would pile up at every step.  eliminate, the one
intersect-and-project step, returns the canonical tails after the k head
coordinates that must vanish, in two phases: the head phase clears each head
column with echelon's row update and drops that column's pivot row, which is
never reduced; the tail phase is echelon of the tails left.  They span the intersection, and echelon
gives a span its one canonical basis, so the tails are those the full
echelon would have.
solve and nullspace take integer rows as echelon does and read their answer
off one echelon, where each pivot entry is (d, 0): solve(ncols, [M | B])
gives the block X with M X == B, row c of X the B part of the row with pivot
c, and None when a pivot lies in B; nullspace gives one vector per free
column.  Of the rest, rank and matmul take Fractions and GaussScalars, and
_scalars reads a canonical row back as them.
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
    if im_rows is not None:
        return _echelon_gauss(list(re_rows), list(im_rows))
    m = list(re_rows)
    pivots: List[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((k for k in range(r, len(m)) if m[k][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for k in range(len(m)):
            f = m[k][c]
            if f and k != r:
                m[k] = _primitive([p * x - f * y for x, y in zip(m[k], prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = []
    for row, c in zip(m, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append((tuple(row) if g == 1 else tuple(x // g for x in row), row[c] // g))
    return out, pivots


def _echelon_gauss(re_rows, im_rows) -> Tuple[List[tuple], List[int]]:
    nrows = len(re_rows)
    pivots: List[int] = []
    r = 0
    for c in range(len(re_rows[0]) if re_rows else 0):
        pr = next((k for k in range(r, nrows) if re_rows[k][c] or im_rows[k][c]), None)
        if pr is None:
            continue
        re_rows[r], re_rows[pr] = re_rows[pr], re_rows[r]
        im_rows[r], im_rows[pr] = im_rows[pr], im_rows[r]
        if im_rows[r][c]:
            re_rows[r], im_rows[r] = _real_pivot(re_rows[r], im_rows[r], c)
        pre, pim = re_rows[r], im_rows[r]
        p = pre[c]
        for k in range(nrows):
            kre, kim = re_rows[k], im_rows[k]
            f, h = kre[c], kim[c]
            if k != r and (f or h):
                re_rows[k], im_rows[k] = _cleared(p, pre, pim, f, h, kre, kim)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for re, im, c in zip(re_rows, im_rows, pivots):
        g = gcd(*re, *im) if re[c] > 0 else -gcd(*re, *im)
        out.append((tuple(x // g for x in re), tuple(y // g for y in im), re[c] // g))
    return out, pivots


def eliminate(k: int, re_rows, im_rows=None) -> List[tuple]:
    """Canonical basis of {v in span(rows) : v[:k] == 0}, given by the tails
    v[k:], for integer rows as in echelon.

    Head phase: for each of the first k columns, a row nonzero there clears
    it in the other rows (echelon's update) and is dropped, with the column.
    The rows left are zero in that column, so a vector of the span is zero
    there exactly when it takes none of the dropped row: the rows left span
    the intersection with {v[c] == 0}.  The dropped pivot rows are never
    reduced.  Tail phase: echelon of the tails left, which is their
    canonical basis, the one the span has."""
    if im_rows is not None:
        return _eliminate_gauss(k, list(re_rows), list(im_rows))
    m = list(re_rows)
    for _ in range(k):
        pr = next((r for r, row in enumerate(m) if row[0]), None)
        if pr is None:
            m = [row[1:] for row in m]
            continue
        prow = m.pop(pr)
        p, ptail = prow[0], prow[1:]
        m = [_primitive([p * x - row[0] * y for x, y in zip(row[1:], ptail)]) if row[0] else row[1:]
             for row in m]
    return echelon(m)[0]


def _eliminate_gauss(k: int, re_rows, im_rows) -> List[tuple]:
    for _ in range(k):
        pr = next((r for r in range(len(re_rows)) if re_rows[r][0] or im_rows[r][0]), None)
        if pr is None:
            re_rows, im_rows = [re[1:] for re in re_rows], [im[1:] for im in im_rows]
            continue
        pre, pim = re_rows.pop(pr), im_rows.pop(pr)
        if pim[0]:
            pre, pim = _real_pivot(pre, pim, 0)
        p, pre, pim = pre[0], pre[1:], pim[1:]
        tails = [
            _cleared(p, pre, pim, kre[0], kim[0], kre[1:], kim[1:]) if kre[0] or kim[0]
            else (kre[1:], kim[1:])
            for kre, kim in zip(re_rows, im_rows)
        ]
        re_rows, im_rows = [re for re, _ in tails], [im for _, im in tails]
    return echelon(re_rows, im_rows)[0]


def _real_pivot(re, im, c) -> Tuple[List[int], List[int]]:
    """The row re + i im times the conjugate p - q i of its entry at c, over
    its gcd: the same complex line, with the positive integer |p + q i|^2/g
    at c."""
    p, q = re[c], im[c]
    return _primitive_pair([p * x + q * y for x, y in zip(re, im)], [p * y - q * x for x, y in zip(re, im)])


def _cleared(p, pre, pim, f, h, kre, kim) -> Tuple[List[int], List[int]]:
    """p (kre + i kim) - (f + h i)(pre + i pim), primitive: the row
    kre + i kim with its entry f + h i cleared against the real pivot entry
    p of the row pre + i pim."""
    if h == 0:
        re = [p * x - f * u for x, u in zip(kre, pre)]
        im = [p * y - f * v for y, v in zip(kim, pim)]
    else:
        re = [p * x - f * u + h * v for x, u, v in zip(kre, pre, pim)]
        im = [p * y - f * v - h * u for y, u, v in zip(kim, pre, pim)]
    return _primitive_pair(re, im)


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


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _primitive_pair(re: List[int], im: List[int]) -> Tuple[List[int], List[int]]:
    """(re, im) divided by the gcd of all their entries."""
    g = gcd(*re, *im)
    return ([x // g for x in re], [x // g for x in im]) if g > 1 else (re, im)


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


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of ints, Fractions and GaussScalars."""
    scaled = [_scaled_gauss(r) for r in rows]
    im = [i for _, i, _ in scaled]
    return len(echelon([r for r, _, _ in scaled], im if any(map(any, im)) else None)[0])


def nullspace(ncols: int, re_rows, im_rows=None) -> List[tuple]:
    """Canonical basis of {x : M x = 0}, M given by integer rows of length
    ncols as in echelon.  One echelon of M gives a vector per free column f:
    x[f] = 1 and x[c] = -r[f]/d for the canonical row r = (..., d) with pivot
    c; they are put over the lcm D of the d and made canonical."""
    red, pivots = echelon(re_rows, im_rows)
    D = lcm(*(r[-1] for r in red))
    parts = []
    for k in range(1 if im_rows is None else 2):
        vectors = []
        for f in (f for f in range(ncols) if f not in pivots):
            v = [D if c == f and k == 0 else 0 for c in range(ncols)]
            for r, c in zip(red, pivots):
                v[c] = -(D // r[-1]) * r[k][f]
            vectors.append(v)
        parts.append(vectors)
    return echelon(*parts)[0]


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


def matvec(A: Sequence[Sequence], v: Sequence) -> Row:
    return [sum((a * x for a, x in zip(row, v)), start=row[0] * 0) for row in A]


def transpose(A: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*A)]


def identity(n: int, one, zero) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def is_skew(A: Sequence[Sequence]) -> bool:
    n = len(A)
    return all(A[i][j] == -A[j][i] for i in range(n) for j in range(i, n))
