"""Shared builders for the test suite."""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import strategies as st

from cxpoisson import (
    Chart,
    ComplexBivector,
    Lagrangian,
    MultiField,
    Poly,
    bivector_from_brackets,
    graph,
    parse_poly,
    transform,
)
from cxpoisson.lagrangian import check, hat, two_form_on_range
from cxpoisson.pointwise import graph_at
from cxpoisson.scalars import GS_I, GS_ONE, GaussScalar

XYZ = Chart(("x", "y", "z"))


def nb_bivector(a: int, b: int) -> ComplexBivector:
    """The running three-variable example family: {x,y} = 1 + i a,
    {x,z} = i b, {y,z} = y + i(-a y + ((1+a^2)/b) z)."""
    c = Fraction(1 + a * a, b)
    return bivector_from_brackets(
        XYZ,
        {
            (0, 1): parse_poly(f"1 + {a}*i", XYZ),
            (0, 2): parse_poly(f"{b}*i", XYZ),
            (1, 2): parse_poly(
                f"y + i*(-{a}*y + ({c.numerator}/{c.denominator})*z)", XYZ
            ),
        },
    )


def leafwise_bivectors():
    """Bivectors whose Delta has dimension >= 2 at the grid points and whose
    leafwise forms omega_re, omega_im are nonzero and differ:
    (x + 2i y) dx^dy + i dz^dw on four variables, where Delta = R^4, and the
    constant (1 + 2i) e0^e1 + (e2 + i e3)^(e4 + i e5) on six, where
    Delta = span(e0, e1) lies in a range of dimension 4."""
    xyzw = Chart(("x", "y", "z", "w"))
    six = Chart(tuple(f"x{k}" for k in range(6)))
    skew = {(0, 1): GaussScalar.of(1, 2), (2, 4): GS_ONE, (2, 5): GS_I, (3, 4): GS_I, (3, 5): -GS_ONE}
    return [
        bivector_from_brackets(xyzw, {(0, 1): parse_poly("x + 2*i*y", xyzw), (2, 3): Poly.const(xyzw, GS_I)}),
        bivector_from_brackets(six, {ij: Poly.const(six, c) for ij, c in skew.items()}),
    ]


def slice_forms(pi: ComplexBivector, point, basis):
    """The two-forms eps(x, y) = xi(y) of check(gr pi) and of hat(gr pi) on
    the given basis of Delta, one two_form_on_range per pair of vectors."""
    L, n = graph_at(pi, point), pi.chart.dim
    forms = []
    for S in (check(L), hat(L)):
        rows = [list(r) for r in S.basis]
        forms.append([[two_form_on_range(rows, n, list(a), list(b)) for b in basis] for a in basis])
    return tuple(forms)


def random_fraction(rng: random.Random, num: int = 5, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_gauss(rng: random.Random, real_only: bool = False) -> GaussScalar:
    return GaussScalar.of(
        random_fraction(rng), 0 if real_only else random_fraction(rng)
    )


def random_skew(rng: random.Random, n: int, real_only: bool = False):
    """n x n skew matrix of GaussScalar entries."""
    M = [[GaussScalar.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = random_gauss(rng, real_only)
            M[i][j], M[j][i] = v, -v
    return M


def random_constant_bivector(rng: random.Random, n: int) -> ComplexBivector:
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            comps[(i, j)] = Poly.const(chart, random_gauss(rng))
    return bivector_from_brackets(chart, comps)


def random_lagrangian(rng: random.Random, n: int) -> Lagrangian:
    """Random complex lagrangian via graphs, splits, and transforms."""
    kind = rng.choice(("bivector", "twoform", "split"))
    if kind == "split":
        picked = set(rng.sample(range(n), rng.randint(0, n)))
        rows = []
        for k in range(n):
            r = [GaussScalar.of(0)] * (2 * n)
            r[k if k in picked else n + k] = GS_ONE
            rows.append(r)
        L = Lagrangian.from_generators(n, rows)
    else:
        L = graph(random_skew(rng, n), kind)
    L = transform("b_field", random_skew(rng, n), L)
    if rng.random() < 0.5:
        L = transform("beta", random_skew(rng, n), L)
    if rng.random() < 0.5:
        z = GaussScalar.of(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
        L = transform("scalar_dot", z, L)
    return L


def random_real_lagrangian(rng: random.Random, n: int) -> Lagrangian:
    """Lagrangian with purely real (Fraction) entries."""
    kind = rng.choice(("bivector", "twoform"))
    L = graph(random_skew(rng, n, real_only=True), kind)
    return transform("b_field", random_skew(rng, n, real_only=True), L)


def random_poly(rng: random.Random, chart: Chart, max_deg: int = 2) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exp = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(chart.dim)] += 1
        c = random_gauss(rng)
        if c:
            terms[tuple(exp)] = c
    p = Poly.zero(chart)
    for exp, c in terms.items():
        mono = Poly.const(chart, c)
        for j, e in enumerate(exp):
            for _ in range(e):
                mono = mono * Poly.var(chart, chart.vars[j])
        p = p + mono
    return p


# Gaussian rationals with mixed denominators, zero included: integer draws
# only, as st.fractions costs several times more to draw
RATIONAL = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
GAUSS = st.builds(GaussScalar.of, RATIONAL, RATIONAL)


@functools.lru_cache(maxsize=16)
def int_polys(chart: Chart, top: int = 2, min_terms: int = 1, max_terms: int = 3):
    """Polys on chart with min_terms to max_terms terms of degree <= top per
    variable.  An exponent is one integer read in base top + 1, and of two
    terms on one exponent the last is kept, so no draw is filtered."""
    base, dim = top + 1, chart.dim

    def build(terms):
        return Poly(chart, {tuple(k // base ** j % base for j in range(dim)): c for k, c in terms})

    return st.lists(st.tuples(st.integers(0, base ** dim - 1), GAUSS),
                    min_size=min_terms, max_size=max_terms).map(build)


@st.composite
def complex_bivectors(draw, dims=(2, 5)):
    """A complex bivector on n = dims[0]..dims[1] variables with up to four
    nonzero entries from int_polys."""
    n = draw(st.integers(*dims))
    chart = Chart(tuple(f"x{k}" for k in range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return bivector_from_brackets(chart, draw(st.dictionaries(st.sampled_from(pairs), int_polys(chart), max_size=4)))


def random_multifield(rng: random.Random, chart: Chart, degree: int) -> MultiField:
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dim), degree):
        p = random_poly(rng, chart)
        if not p.is_zero():
            comps[idx] = p
    return MultiField(chart, degree, comps)


def reference_rref(rows):
    """Field-division Gauss-Jordan, leftmost pivot, leading ones: the rref
    this package used before its integer elimination.  Int entries are made
    Fractions, so nothing divides into floats."""
    m = [[Fraction(x) if type(x) is int else x for x in r] for r in rows]
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


def reference_rank(rows) -> int:
    """The number of pivots of reference_rref."""
    return len(reference_rref(rows)[0])


def reference_matvec(A, v):
    """A v, entry by entry, for Fraction or GaussScalar entries."""
    return [sum((a * x for a, x in zip(row, v)), start=row[0] * 0) for row in A]


def identity_matrix(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def reference_nullspace(rows, ncols, one, zero):
    """Basis of {x : M x = 0} off reference_rref: per free column f, x[f] =
    one and x[c] = -r[f] for the row r with pivot c."""
    red, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def reference_solve(rows, rhs, ncols, zero):
    """X with M X == B off reference_rref of [M | B], free unknowns zero;
    None if any column of B is inconsistent."""
    red, pivots = reference_rref([list(r) + list(b) for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] >= ncols:
        return None
    X = [[zero] * (len(rhs[0]) if rhs else 0) for _ in range(ncols)]
    for r, pc in zip(red, pivots):
        X[pc] = r[ncols:]
    return X


def reference_contains(rows, v) -> bool:
    """v lies in the span of rows: reference_rref gains no row."""
    return len(reference_rref([*rows, v])[0]) == len(reference_rref(rows)[0])


def is_canonical(row, is_complex) -> bool:
    """A canonical integer row: (re, im, d) over Q(i), (ints, d) over Q, as
    tuples, with d > 0, first nonzero entry (d, 0) and gcd 1 over the entries
    and d."""
    if len(row) != (3 if is_complex else 2):
        return False
    *parts, d = row
    re, im = parts[0], parts[-1] if is_complex else (0,) * len(parts[0])
    c = next((j for j, (a, b) in enumerate(zip(re, im)) if a or b), None)
    return (
        all(type(v) is tuple for v in parts)
        and d > 0 and c is not None and re[c] == d and im[c] == 0
        and gcd(*re, *im, d) == 1
    )


@pytest.fixture
def rng():
    return random.Random(20260823)
