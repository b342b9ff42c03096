"""Sparse multivariate polynomials over Gaussian rationals on a named chart.

A Poly is N/d: a dict from packed monomials to Gaussian-integer numerator
pairs (a, b), meaning a + b i, over one positive integer denominator d.

- Monomials are packed exponent vectors (Monagan and Pearce, CASC 2007):
  variable j owns bits [FIELD_BITS * j, FIELD_BITS * (j + 1)) of one int, so
  a monomial product is one int add.  The top bit of each field is a guard
  that no stored exponent sets, so every exponent is at most MAX_EXPONENT =
  2^(FIELD_BITS - 1) - 1.  Two fields below the guard sum without a carry
  into the next field; a product whose sum reaches a guard bit raises
  OverflowError instead of wrapping.
- Every sum of products runs in one loop, _mul_into, over a list of pairs
  (out, c, pa, pb), one call per operation.  Its overflow check takes one
  bound per call, the OR of every left key plus the OR of every right key;
  only when that bound reaches a guard bit are the pairs checked one by
  one, all before any product is formed.
- Graded products (poly_graded_products) take operands whose parts are the
  components of a field, each with its theta-index set as a bitmask.  A
  part pair is formed only when the sign table _SIGNS[ma][mb] is not 0, and
  its monomial products, one int add each, go to the numerator dict of the
  output mask.  The masks stay out of the monomial keys: a key
  (mask << FIELD_BITS * dim) | monomial must be split by mask at the end,
  which measured slower than one dict per output mask.  The chart's last
  variable owns the top field of a key; its guard bit keeps a carry from
  leaving the chart's fields, where it would read as a variable the chart
  does not have.
- The form is canonical: no (0, 0) pair is stored, d > 0, and the gcd of d
  and every numerator integer is 1 (content 1).  So equality is a plain
  dict comparison, and the zero polynomial is the empty dict over d = 1.

Only the public constructor Poly(chart, terms) validates.  Arithmetic,
partials, parts and substitution build their results through a trusted
constructor and reduce the content only when d > 1.  Sums, products and
negation run on (numerators, denominator) pairs (_sum, _product, _negated,
each reduced by _content), which Poly's operators wrap; the coefficient
grammar calls the same cores on its pairs and makes one Poly per
coefficient.  Evaluation at a
rational point stays in integers too: poly_values writes the point once as
numerators over one denominator and returns the values of several Polys as
numerator pairs over one denominator with content 1.  GaussScalars are made
only at the API edge: the read-only .terms view ({exponent tuple: GaussScalar},
unpacked on first read and cached), poly_eval (poly_values for one Poly),
printing and hash.  Printing uses graded lexicographic order on the chart's
variable order, which makes output canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .scalars import GS_ONE, GaussScalar, Rational, _coerce, _make

Exponent = Tuple[int, ...]

# bits per variable in a packed monomial, guard bit included
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
# chart dimension -> mask of every field's guard bit.  Kept here, not on
# Chart or Poly, so that no wide derived int sits among a value's attributes.
_GUARDS: Dict[int, int] = {}


def _guard(dim: int) -> int:
    g = _GUARDS.get(dim)
    if g is None:
        top = 1 << (FIELD_BITS - 1)
        g = _GUARDS[dim] = sum(top << (FIELD_BITS * j) for j in range(dim))
    return g


def _unpack(key: int, dim: int) -> Exponent:
    return tuple((key >> (FIELD_BITS * j)) & _FIELD for j in range(dim))


@dataclass(frozen=True)
class Chart:
    vars: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(self.vars) < 1:
            raise ValueError("chart needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable names in chart {self.vars}")

    @property
    def dim(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in chart {self.vars}") from None


class Poly:
    """Immutable-by-convention sparse polynomial; use the module operations.

    Poly(chart, terms) takes {exponent tuple: coefficient}, with
    coefficients given as GaussScalar, int or Fraction, and refuses an
    exponent that is not an int in 0..MAX_EXPONENT.
    """

    __slots__ = ("chart", "_num", "_den", "_terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, GaussScalar]):
        dim = chart.dim
        rows: Dict[int, Tuple[int, int, int]] = {}
        den = 1
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} has wrong length for {chart.vars}")
            key = 0
            for j, e in enumerate(exp):
                if type(e) is not int or not 0 <= e <= MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {exp} must hold ints in 0..{MAX_EXPONENT}"
                    )
                key |= e << (FIELD_BITS * j)
            a, b, d = _coerce(c).abd
            if a or b:
                if key in rows:
                    raise ValueError(f"exponent {exp} is given twice")
                rows[key] = (a, b, d)
                den = lcm(den, d)
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the content is 1
        self.chart = chart
        self._num = {k: (a * (den // d), b * (den // d)) for k, (a, b, d) in rows.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return _poly(chart, {}, 1)

    @staticmethod
    def const(chart: Chart, value: Union[Rational, GaussScalar]) -> "Poly":
        a, b, d = _coerce(value).abd
        if not (a or b):
            return _poly(chart, {}, 1)
        return _poly(chart, {0: (a, b)}, d)

    @staticmethod
    def var(chart: Chart, name: str) -> "Poly":
        return _poly(chart, {1 << (FIELD_BITS * chart.index(name)): (1, 0)}, 1)

    # -- the {exponent tuple: GaussScalar} view ----------------------------

    @property
    def terms(self) -> Mapping[Exponent, GaussScalar]:
        """A read-only view of the terms, unpacked on first read and cached
        as a plain dict, which copies and pickles with the Poly."""
        try:
            t = self._terms
        except AttributeError:
            dim, d = self.chart.dim, self._den
            t = self._terms = {_unpack(k, dim): _make(a, b, d) for k, (a, b) in self._num.items()}
        return MappingProxyType(t)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_real(self) -> bool:
        return all(b == 0 for _, b in self._num.values())

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self._den == other._den
            and self._num == other._num
            and self.chart == other.chart
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- arithmetic via operators -----------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _same_chart(self, other)
        num, den = _sum(self._num, self._den, other._num, other._den, 1)
        return _poly(self.chart, num, den)

    def __neg__(self) -> "Poly":
        return _poly(self.chart, _negated(self._num), self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        _same_chart(self, other)
        num, den = _sum(self._num, self._den, other._num, other._den, -1)
        return _poly(self.chart, num, den)

    def __mul__(self, other: "Poly") -> "Poly":
        _same_chart(self, other)
        num, den = _product(len(self.chart.vars), self._num, self._den, other._num, other._den)
        return _poly(self.chart, num, den)

    def scale(self, c: Union[Rational, GaussScalar]) -> "Poly":
        p, q, e = _coerce(c).abd
        if not (p or q):
            return _poly(self.chart, {}, 1)
        out = {k: (a * p - b * q, a * q + b * p) for k, (a, b) in self._num.items()}
        return _reduced(self.chart, out, self._den * e)

    # -- parts -------------------------------------------------------------

    def real_part(self) -> "Poly":
        out = {k: (a, 0) for k, (a, _) in self._num.items() if a}
        return _reduced(self.chart, out, self._den)

    def imag_part(self) -> "Poly":
        out = {k: (b, 0) for k, (_, b) in self._num.items() if b}
        return _reduced(self.chart, out, self._den)

    def conjugate(self) -> "Poly":
        return _poly(self.chart, {k: (a, -b) for k, (a, b) in self._num.items()}, self._den)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r} on {self.chart.vars})"


_new = object.__new__


def _poly(chart: Chart, num: Dict[int, Tuple[int, int]], den: int) -> Poly:
    """The trusted constructor: num over den must already be canonical."""
    p = _new(Poly)
    p.chart = chart
    p._num = num
    p._den = den
    return p


Num = Dict[int, Tuple[int, int]]


def _content(num: Num, den: int) -> Tuple[Num, int]:
    """num/den, for den > 0 and num without (0, 0) pairs, over its content:
    the canonical (numerators, denominator) pair.  The content is divided
    out only when den > 1."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = den
            for a, b in num.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            else:
                num = {k: (a // g, b // g) for k, (a, b) in num.items()}
                den //= g
    return num, den


def _reduced(chart: Chart, num: Num, den: int) -> Poly:
    """The Poly num/den reduced by _content.  It is built here, as _poly
    builds one, not through a second call: this is the constructor of
    nearly every product and partial."""
    p = _new(Poly)
    p.chart = chart
    p._num, p._den = _content(num, den)
    return p


def _negated(num: Num) -> Num:
    return {k: (-a, -b) for k, (a, b) in num.items()}


# (out, c, pa, pb): add c * pa * pb to out
Pair = Tuple[Num, int, Num, Num]


def _products(dim: int, pairs: List[Pair], left: int, right: int):
    """Form pairs in one _mul_into, after the overflow check: left and right
    are the ORs of every left and every right numerator dict's keys, whose
    fields bound the exponents that meet.  Only when that bound reaches a
    guard bit is each pair checked by the exact maxima of its two dicts,
    which meet in some product, so OverflowError comes before any product
    is formed."""
    if (left + right) & _guard(dim):
        for _, _, pa, pb in pairs:
            for j in range(dim):
                shift = FIELD_BITS * j
                top = max((k >> shift) & _FIELD for k in pa) + max((k >> shift) & _FIELD for k in pb)
                if top > MAX_EXPONENT:
                    raise OverflowError(
                        f"a product has exponent {top}, past the maximum {MAX_EXPONENT}"
                    )
    _mul_into(pairs)


def _mul_into(pairs: List[Pair]):
    """For each (out, c, pa, pb) in pairs add c * pa * pb to the numerator
    dict out, dropping the pairs that cancel to (0, 0): the package's one
    product loop."""
    for out, c, pa, pb in pairs:
        get = out.get
        for ka, (a1, b1) in pa.items():
            if c != 1:
                a1 *= c
                b1 *= c
            for kb, (a2, b2) in pb.items():
                k = ka + kb
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                v = get(k)
                if v is None:
                    out[k] = (re, im)
                else:
                    re += v[0]
                    im += v[1]
                    if re or im:
                        out[k] = (re, im)
                    else:
                        del out[k]


def _sum(n1: Num, d1: int, n2: Num, d2: int, sign: int) -> Tuple[Num, int]:
    """n1/d1 + sign * n2/d2, sign 1 or -1, for canonical pairs; canonical."""
    if d1 == d2:
        out = dict(n1)
        s = sign
    else:
        g = gcd(d1, d2)
        s1, s = d2 // g, sign * (d1 // g)
        out = {k: (a * s1, b * s1) for k, (a, b) in n1.items()}
        d1 *= s1
    get = out.get
    for k, (a, b) in n2.items():
        if s != 1:
            a *= s
            b *= s
        v = get(k)
        if v is None:
            out[k] = (a, b)
        else:
            a += v[0]
            b += v[1]
            if a or b:
                out[k] = (a, b)
            else:
                del out[k]
    return _content(out, d1)


def _product(dim: int, n1: Num, d1: int, n2: Num, d2: int) -> Tuple[Num, int]:
    """n1/d1 * n2/d2 on a chart of dim variables, for canonical pairs;
    canonical.  OverflowError, from _products, comes before any monomial
    product is formed."""
    out: Num = {}
    if n1 and n2:
        _products(dim, [(out, 1, n1, n2)], reduce(or_, n1), reduce(or_, n2))
    return _content(out, d1 * d2)


def _same_chart(a: Poly, b: Poly):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError(f"chart mismatch: {a.chart.vars} vs {b.chart.vars}")


def poly_sums_of_products(chart: Chart, groups: Iterable[Iterable[Tuple[int, Poly, Poly]]]) -> List[Poly]:
    """For each group of (c, p, q), c a nonzero int and all p and q on chart
    (not compared), the sum of c * p * q.  Every pair is checked for
    overflow as p * q checks it before any product is formed; then all
    groups are formed in one pass, each in one numerator dict over the lcm
    of its denominators, reduced once."""
    outs = []
    pairs: List[Pair] = []
    left = right = 0
    for group in groups:
        group = [(c, p, q) for c, p, q in group if p._num and q._num]
        den = lcm(*(p._den * q._den for _, p, q in group))
        out: Num = {}
        for c, p, q in group:
            pa, pb = p._num, q._num
            left |= reduce(or_, pa)
            right |= reduce(or_, pb)
            pairs.append((out, c * (den // (p._den * q._den)), pa, pb))
        outs.append((out, den))
    _products(chart.dim, pairs, left, right)
    return [_reduced(chart, out, den) for out, den in outs]


# -- graded products --------------------------------------------------------


class _Memo(dict):
    """A dict that fills a missing key k with fn(k) on first read."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, k):
        v = self[k] = self.fn(k)
        return v


def _sign(ma: int, mb: int) -> int:
    """The sign with which theta-masks ma and mb multiply; no sign depends
    on the chart.

    - ma >= 0: 0 when the masks meet, else the sign that sorts th_ma th_mb
      into th_(ma | mb), (-1)^#{(i, j): i in ma, j in mb, i > j}.
    - ma = -2^j stands for d/dth_j, the left odd derivative: 0 when j is not
      in mb, else (-1)^#{i in mb: i < j}.

    Either way a formed pair lands on the mask ma + mb."""
    if ma < 0:
        flips = (mb & (-ma - 1)).bit_count() if mb & -ma else -1
    elif ma & mb:
        flips = -1
    else:
        flips = 0
        while mb:
            low = mb & -mb
            flips += (ma & -low).bit_count()
            mb ^= low
    return 0 if flips < 0 else 1 - 2 * (flips & 1)


# _SIGNS[ma][mb] = _sign(ma, mb), one row per left mask
_SIGNS = _Memo(lambda ma: _Memo(partial(_sign, ma)))


def poly_graded_products(chart: Chart, terms: Iterable[Tuple[int, Sequence, Sequence]]) -> Dict[int, Poly]:
    """The sum of c * A * B over the (c, A, B) in terms, c a nonzero int and
    A and B graded operands, as {theta-mask: component Poly}.

    An operand is a sequence of parts (mask, sign, p): the term
    sign * p th_mask, with sign 1 or -1, distinct masks and p a nonzero Poly
    on chart (not compared).  A negative mask -2^j, in a left operand only,
    stands for d/dth_j (see _sign).  A part pair is formed when its sign
    _SIGNS[ma][mb] is not 0, and lands on the mask ma + mb.  The formed
    pairs are checked for overflow, then formed in one _mul_into into one
    numerator dict per output mask, all over one denominator; each dict is
    reduced once, at the end."""
    terms = [t for t in terms if t[1] and t[2]]
    if not terms:
        return {}
    da = lcm(*{p._den for _, parts, _ in terms for _, _, p in parts})
    db = lcm(*{p._den for _, _, parts in terms for _, _, p in parts})
    signs = _SIGNS
    outs: Dict[int, Num] = {}
    pairs: List[Pair] = []
    left = right = 0
    for c, lefts, rights in terms:
        rights = [(mb, sb * (db // q._den), q._num) for mb, sb, q in rights]
        for _, _, pb in rights:
            right |= reduce(or_, pb)
        for ma, sa, p in lefts:
            pa = p._num
            left |= reduce(or_, pa)
            row = signs[ma]
            ca = c * sa * (da // p._den)
            for mb, n, pb in rights:
                t = row[mb]
                if t:
                    out = outs.get(ma + mb)
                    if out is None:
                        out = outs[ma + mb] = {}
                    pairs.append((out, ca * t * n, pa, pb))
    _products(chart.dim, pairs, left, right)
    den = da * db
    return {m: _reduced(chart, out, den) for m, out in outs.items() if out}


def poly_partial(p: Poly, var: str) -> Poly:
    shift = FIELD_BITS * p.chart.index(var)
    one = 1 << shift
    out: Dict[int, Tuple[int, int]] = {}
    for key, (a, b) in p._num.items():
        k = (key >> shift) & _FIELD
        if k:
            # distinct keys stay distinct after the decrement
            out[key - one] = (a * k, b * k)
    return _reduced(p.chart, out, p._den)


def poly_values(chart: Chart, polys: Iterable[Poly], point: Mapping[str, Rational]) -> Tuple[List[Tuple[int, int]], int]:
    """The values of polys, all on chart, at a rational point, as Gaussian
    integer numerators (re, im) over one denominator d > 0 with content 1:
    the package's one evaluation loop.

    The point is written once as integers n_j over their common denominator
    D.  A term c x^e of degree k of a Poly N/e is then c n^e D^(T - k) over
    e D^T, T the largest degree of any term, and each Poly's sum is scaled
    to L D^T, L the lcm of the e."""
    nums = []
    dens = []
    for name in chart.vars:
        if name not in point:
            raise KeyError(f"point missing value for variable {name!r}")
        v = point[name]
        if type(v) is not int and type(v) is not Fraction:
            v = Fraction(v)
        nums.append(v.numerator)
        dens.append(v.denominator)
    D = lcm(*dens)
    nums = [n * (D // d) for n, d in zip(nums, dens)]
    sums = []
    top = 0
    for p in polys:
        terms = []
        for key, (a, b) in p._num.items():
            m = 1
            deg = 0
            j = 0
            while key:
                e = key & _FIELD
                if e:
                    m *= nums[j] ** e
                    deg += e
                key >>= FIELD_BITS
                j += 1
            terms.append((a * m, b * m, deg))
            if deg > top:
                top = deg
        sums.append((terms, p._den))
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * D)
    L = lcm(*(e for _, e in sums))
    out = []
    for terms, e in sums:
        re = im = 0
        for a, b, deg in terms:
            s = powers[top - deg]
            re += a * s
            im += b * s
        s = L // e
        out.append((re * s, im * s))
    den = L * powers[top]
    g = gcd(den, *(x for pair in out for x in pair))
    if g != 1:
        out = [(a // g, b // g) for a, b in out]
        den //= g
    return out, den


def poly_eval(p: Poly, point: Mapping[str, Rational]) -> GaussScalar:
    """p at a rational point (poly_values for one Poly)."""
    ((re, im),), d = poly_values(p.chart, (p,), point)
    return _make(re, im, d)


def poly_subst_zero(p: Poly, names) -> Poly:
    """Set the listed variables to zero (restriction to a coordinate subspace)."""
    mask = 0
    for n in names:
        mask |= _FIELD << (FIELD_BITS * p.chart.index(n))
    out = {k: v for k, v in p._num.items() if not k & mask}
    return _reduced(p.chart, out, p._den)


# -- canonical printing ----------------------------------------------------


def _grlex_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in exp))


def _monomial_str(chart: Chart, exp: Exponent) -> str:
    parts = []
    for name, k in zip(chart.vars, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def _coeff_str(c: GaussScalar) -> str:
    a, b, _ = c.abd
    if a and b:
        return f"({c})"
    return str(c)


def format_poly(p: Poly) -> str:
    terms = p.terms
    if not terms:
        return "0"
    chunks = []
    for exp in sorted(terms, key=_grlex_key):
        c = terms[exp]
        mono = _monomial_str(p.chart, exp)
        if not mono:
            chunks.append(_coeff_str(c))
        elif c == GS_ONE:
            chunks.append(mono)
        else:
            chunks.append(f"{_coeff_str(c)}*{mono}")
    return " + ".join(chunks)
