"""Generic exact linear algebra over a field (Fraction or GaussScalar).

Everything works on lists of lists.  Elements only need +, -, *, /, unary
minus, truthiness for zero-testing, and == comparison, so the same code runs
over the rationals and over the Gaussian rationals.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Row = List
Matrix = List[Row]


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Leftmost-pivot, leading-one normalization: the output is the canonical
    basis of the row span, so span equality is list equality.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
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


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


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


def solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int, zero) -> Optional[Row]:
    """One solution x of M x = rhs, M given by rows of length ncols, one row
    per entry of rhs; free unknowns are set to zero.  None if inconsistent."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return x


def matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    return [
        [sum((a * b for a, b in zip(row, col)), start=row[0] * 0) for col in zip(*B)]
        for row in A
    ]


def matvec(A: Sequence[Sequence], v: Sequence) -> Row:
    return [sum((a * x for a, x in zip(row, v)), start=row[0] * 0) for row in A]


def transpose(A: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*A)]


def identity(n: int, one, zero) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def inverse(A: Sequence[Sequence], one, zero) -> Optional[Matrix]:
    """Matrix inverse by Gauss-Jordan on [A | I]; None if singular."""
    n = len(A)
    aug = [list(A[i]) + identity(n, one, zero)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


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


def span_equal(a_rows: Sequence[Sequence], b_rows: Sequence[Sequence]) -> bool:
    return rref(a_rows)[0] == rref(b_rows)[0]
