"""Exact linear algebra over Q (Fraction) and Q(i) (GaussScalar).

Everything works on lists of lists.  rref, and everything built on it, runs
on integers internally (see rref); the other helpers only need +, -, *,
unary minus and ==, so the same code serves both fields.  eliminate is the
one intersect-and-project step: order the columns so that the coordinates
required to vanish come first, and it returns the rest of each vector.
solve is the one linear-system step: it solves M X = B for a whole block B
of right-hand sides with one rref of [M | B], so an inverse is
solve(A, identity(...)), which is None exactly when A is singular.
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


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Leftmost-pivot, leading-one normalization: the output is the canonical
    basis of the row span, so span equality is list equality.

    Entries are ints, Fractions or GaussScalars.  The elimination is
    fraction-free Gauss-Jordan on integers: each row is scaled to clear its
    denominators (a row over Q(i) becomes parallel real and imaginary int
    lists), a row update is r_k <- p r_k - f r_pivot with p the pivot and f
    the entry being cleared, and each updated row is divided by the gcd of
    its entries.  Each pivot row is divided by its pivot once, at the end.
    Rows come back as GaussScalars when any entry is one, else as Fractions.
    """
    rows = list(rows)
    if any(type(x) is GaussScalar for r in rows for x in r):
        return _rref_gauss(rows)
    return _rref_rational(rows)


def _rref_rational(rows) -> Tuple[Matrix, List[int]]:
    m = [_rational_ints(row) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if m[k][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for k in range(nrows):
            f = m[k][c]
            if f and k != r:
                m[k] = _primitive([p * x - f * y for x, y in zip(m[k], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append([Fraction(x, p) if x else _F0 for x in row])
    return out, pivots


def _rref_gauss(rows) -> Tuple[Matrix, List[int]]:
    re_rows, im_rows = [], []
    for row in rows:
        re, im = _gauss_ints(row)
        re_rows.append(re)
        im_rows.append(im)
    if not re_rows:
        return [], []
    nrows, ncols = len(re_rows), len(re_rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if re_rows[k][c] or im_rows[k][c]), None)
        if pr is None:
            continue
        re_rows[r], re_rows[pr] = re_rows[pr], re_rows[r]
        im_rows[r], im_rows[pr] = im_rows[pr], im_rows[r]
        pre, pim = re_rows[r], im_rows[r]
        p, q = pre[c], pim[c]
        for k in range(nrows):
            kre, kim = re_rows[k], im_rows[k]
            f, h = kre[c], kim[c]
            if k == r or not (f or h):
                continue
            if q == 0 and h == 0:
                re = [p * x - f * y for x, y in zip(kre, pre)]
                im = [p * x - f * y for x, y in zip(kim, pim)]
            else:
                # (p + q i)(x + y i) - (f + h i)(u + v i)
                re = [p * x - q * y - f * u + h * v for x, y, u, v in zip(kre, kim, pre, pim)]
                im = [p * y + q * x - f * v - h * u for x, y, u, v in zip(kre, kim, pre, pim)]
            re_rows[k], im_rows[k] = _primitive_pair(re, im)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for re, im, c in zip(re_rows, im_rows, pivots):
        p, q = re[c], im[c]
        if q == 0:
            out.append([_make(x, y, p) if x or y else GS_ZERO for x, y in zip(re, im)])
        else:
            # (x + y i)/(p + q i) = ((x p + y q) + (y p - x q) i)/(p^2 + q^2)
            n = p * p + q * q
            out.append([
                _make(x * p + y * q, y * p - x * q, n) if x or y else GS_ZERO
                for x, y in zip(re, im)
            ])
    return out, pivots


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _primitive_pair(re: List[int], im: List[int]) -> Tuple[List[int], List[int]]:
    """(re, im) divided by the gcd of all their entries."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [x // g for x in im]
    return re, im


def _scaled_rational(row: Sequence) -> Tuple[List[int], int]:
    """(ints, den) with row == ints / den, for a row of ints and Fractions."""
    try:
        dens = [x.denominator for x in row]
    except AttributeError:
        raise TypeError(f"expected int or Fraction entries, got {row!r}") from None
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // d) for x, d in zip(row, dens)], den


def _scaled_gauss(row: Sequence) -> Tuple[List[int], List[int], int]:
    """(re, im, den) with row == (re + i im) / den, for a row of
    GaussScalars, ints and Fractions."""
    try:
        abd = [x.abd if type(x) is GaussScalar else (x.numerator, 0, x.denominator) for x in row]
    except AttributeError:
        raise TypeError(f"expected int, Fraction or GaussScalar entries, got {row!r}") from None
    den = lcm(*(d for _, _, d in abd))
    return [a * (den // d) for a, _, d in abd], [b * (den // d) for _, b, d in abd], den


def _rational_ints(row: Sequence) -> List[int]:
    """The primitive integer multiple of a row of ints and Fractions."""
    return _primitive(_scaled_rational(row)[0])


def _gauss_ints(row: Sequence) -> Tuple[List[int], List[int]]:
    """(real parts, imaginary parts) of the primitive Gaussian-integer
    multiple of a row of GaussScalars, ints and Fractions."""
    re, im, _ = _scaled_gauss(row)
    return _primitive_pair(re, im)


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def eliminate(rows: Sequence[Sequence], k: int) -> Matrix:
    """Basis of {v in span(rows) : v[:k] == 0}, given by the tails v[k:].

    In reduced echelon form the rows whose pivot is at or after column k
    span exactly that intersection, so their tails come back reduced.
    """
    red, pivots = rref(rows)
    return [r[k:] for r, c in zip(red, pivots) if c >= k]


def nullspace(rows: Sequence[Sequence], ncols: int, one, zero) -> Matrix:
    """Basis of {x : M x = 0} for M given by rows of length ncols."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence[Sequence], ncols: int, zero) -> Optional[Matrix]:
    """X with M X == B, from one rref of [M | B].

    M is given by rows of length ncols; B by rhs, one row per equation and
    one column per right-hand side.  X has ncols rows, with free unknowns set
    to zero.  None if any column of B is inconsistent.
    """
    red, pivots = rref([list(r) + list(b) for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] >= ncols:
        return None
    width = len(rhs[0]) if rhs else 0
    X = [[zero] * width for _ in range(ncols)]
    for r, pc in zip(red, pivots):
        X[pc] = r[ncols:]
    return X


def matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    """A B for entries that are ints, Fractions or GaussScalars; the result is
    GaussScalars when any entry is one, else Fractions.  Each row of A and
    column of B is put over one denominator, so every entry costs one integer
    dot product and one reduction."""
    cols = list(zip(*B))
    if any(type(x) is GaussScalar for M in (A, cols) for r in M for x in r):
        rows_g = [_scaled_gauss(r) for r in A]
        cols_g = [_scaled_gauss(c) for c in cols]
        return [
            [
                _make(_dot(xr, yr) - _dot(xi, yi), _dot(xr, yi) + _dot(xi, yr), dx * dy)
                for yr, yi, dy in cols_g
            ]
            for xr, xi, dx in rows_g
        ]
    rows_q = [_scaled_rational(r) for r in A]
    cols_q = [_scaled_rational(c) for c in cols]
    return [[Fraction(_dot(x, y), dx * dy) for y, dy in cols_q] for x, dx in rows_q]


def matvec(A: Sequence[Sequence], v: Sequence) -> Row:
    return [sum((a * x for a, x in zip(row, v)), start=row[0] * 0) for row in A]


def transpose(A: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*A)]


def identity(n: int, one, zero) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def neg_matrix(A: Sequence[Sequence]) -> Matrix:
    return [[-x for x in row] for row in A]


def is_skew(A: Sequence[Sequence]) -> bool:
    n = len(A)
    for i in range(n):
        if A[i][i]:
            return False
        for j in range(i + 1, n):
            if A[i][j] != -A[j][i]:
                return False
    return True


def member(v: Sequence, basis_rref: Sequence[Sequence]) -> bool:
    """Test membership of v in a span given by its rref basis."""
    combined, _ = rref(list(basis_rref) + [list(v)])
    return len(combined) == len(basis_rref)

