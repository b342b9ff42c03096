"""Text grammar for polynomial coefficients and rational literals.

Accepted tokens: integers, rationals `p/q`, the imaginary unit `i`, chart
variable names, `+ - * ^` and parentheses.  Whitespace is ignored.  `^` takes
a nonnegative integer exponent of at most MAX_EXPONENT.  Multiplication is
always explicit (`2*x*y`).  A product, written or formed by `^`, whose
operands' term counts multiply past MAX_PRODUCT_TERMS is refused before it
is computed, so no coefficient takes unbounded time to parse.  Parentheses
and unary signs nest at most MAX_NESTING deep, and an integer literal has at
most as many digits as Python converts (sys.get_int_max_str_digits()).

The parser has one method per precedence level: expr (sums), term
(products) and factor (a run of signs, one atom, an optional `^`), and a
paren starts a new expr.  Values stay (numerators, denominator) pairs in the
packed form of poly.Poly until parse_poly makes its one Poly: `p/q` is the
numerator pair (p/g, 0) over q/g with g their gcd, `i` is (0, 1) over 1,
and a variable is its packed monomial key over 1.  Sums, products and signs
call poly's own cores on those pairs (_sum, _product, _negated), so no
arithmetic is done here; a sign in front of a literal with no `^` after it
goes into the literal.  The token list ends in the end sentinel "", and
each token is its own text, so an operator is compared directly and the
parser reads the current token without a bounds test; a token's column is
found again only for an error.

parse_rational reads a point coordinate with the same literal reader: an
optional sign, then `p` or `p/q`, and nothing else (no decimal point,
exponent or digit separator).

The printer in poly.format_poly emits strings this parser accepts, so
parse/print round-trips.
"""

from __future__ import annotations

import re
from math import gcd
from typing import List, Tuple

from .poly import FIELD_BITS, Chart, Num, Poly, _negated, _poly, _product, _sum

# a variable name the grammar can read
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# one token after optional whitespace
_TOKEN_RE = re.compile(rf"\s*(\d+|{NAME_RE.pattern}|[-+*/^()])")
# a character that no token holds
_BAD_RE = re.compile(r"[^\s\dA-Za-z_\-+*/^()]")
# the tokens that are no name, the end sentinel among them, though a Chart
# built in code may hold them as variable names
_NOT_NAMES = frozenset(["", "-", "+", "*", "/", "^", "(", ")"])


# largest exponent accepted after `^`; a larger one is a parse error
MAX_EXPONENT = 64
# largest product of two operands' term counts that `*` and `^` may form
MAX_PRODUCT_TERMS = 100_000
# deepest nesting of parentheses and unary signs; each parenthesis takes
# three stack frames of the recursive-descent parser
MAX_NESTING = 100

# a value while it is parsed: (numerators, denominator), as a Poly keeps them
Value = Tuple[Num, int]


class PolyParseError(ValueError):
    def __init__(self, text: str, pos: int, msg: str):
        super().__init__(f"at column {pos + 1}: {msg} in {text!r}")
        self.pos = pos


def _tokenize(text: str) -> List[str]:
    """The tokens of text, each its own text, then the end sentinel ""."""
    bad = _BAD_RE.search(text)
    if bad:
        raise PolyParseError(text, bad.start(), f"unexpected character {bad.group()!r}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the tokens, one method per precedence level:
    expr (sums), term (products) and factor (a run of signs, one atom and an
    optional `^`).  self.k is the current token's index.  A value is a
    (numerators, denominator) pair as poly keeps it.  Token positions are
    needed only for errors, so error() finds them again."""

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def error(self, k: int, msg: str) -> PolyParseError:
        """msg at token k, or unexpected end of input at the end sentinel."""
        if k == len(self.tokens) - 1:
            return PolyParseError(self.text, len(self.text), "unexpected end of input")
        pos = [m.start(1) for m in _TOKEN_RE.finditer(self.text)][k]
        return PolyParseError(self.text, pos, msg)

    def deeper(self, depth: int, k: int) -> int:
        """depth + 1 for the token k, a sign or a parenthesis, that opens a
        nesting level; refused past MAX_NESTING."""
        if depth == MAX_NESTING:
            raise self.error(k, f"nesting deeper than the maximum {MAX_NESTING}")
        return depth + 1

    def integer(self, k: int) -> int:
        tok = self.tokens[k]
        try:
            return int(tok)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(k, f"integer of {len(tok)} digits is too long") from None

    def finish(self):
        tok = self.tokens[self.k]
        if tok:
            raise self.error(self.k, f"trailing token {tok!r}")

    def expr(self) -> Value:
        num, den = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.k]
            if op != "+" and op != "-":
                return num, den
            self.k += 1
            n2, d2 = self.term()
            num, den = _sum(num, den, n2, d2, 1 if op == "+" else -1)

    def term(self) -> Value:
        p = self.factor()
        while self.tokens[self.k] == "*":
            k = self.k
            self.k = k + 1
            p = self.product(p, self.factor(), k)
        return p

    def factor(self) -> Value:
        tokens = self.tokens
        k = self.k
        depth = self.depth
        negative = False
        tok = tokens[k]
        while tok == "-" or tok == "+":
            depth = self.deeper(depth, k)
            negative ^= tok == "-"
            k += 1
            tok = tokens[k]
        self.k = k + 1
        chart = self.chart
        if tok.isdecimal():
            p, q = self.rational(k)
            if negative and tokens[self.k] != "^":
                # the sign goes into the literal, unless a power comes first
                p, negative = -p, False
            value = ({0: (p, 0)}, q) if p else ({}, 1)
        # a chart variable named i shadows the imaginary unit
        elif tok in chart.vars and tok not in _NOT_NAMES:
            value = ({1 << (FIELD_BITS * chart.vars.index(tok)): (1, 0)}, 1)
        elif tok == "i":
            value = ({0: (0, 1)}, 1)
        elif tok == "(":
            outer = self.depth
            self.depth = self.deeper(depth, k)
            value = self.expr()
            self.depth = outer
            close = tokens[self.k]
            if close != ")":
                raise self.error(self.k, f"expected ')', got {close!r}")
            self.k += 1
        elif NAME_RE.match(tok):
            raise self.error(k, f"unknown variable {tok!r}")
        else:
            raise self.error(k, f"unexpected token {tok!r}")
        k = self.k
        if tokens[k] == "^":
            self.k = k + 2
            if not tokens[k + 1].isdecimal():
                raise self.error(k + 1, "exponent must be an integer")
            e = self.integer(k + 1)
            if e > MAX_EXPONENT:
                raise self.error(k + 1, f"exponent {e} exceeds the maximum {MAX_EXPONENT}")
            # value^e by repeated squaring: about 2 log2(e) multiplications
            base, value = value, ({0: (1, 0)}, 1)
            while e:
                if e & 1:
                    value = self.product(value, base, k)
                e >>= 1
                if e:
                    base = self.product(base, base, k)
        return (_negated(value[0]), value[1]) if negative else value

    def product(self, p: Value, q: Value, k: int) -> Value:
        """p * q for the operator at token k, refused before it is formed
        when it exceeds MAX_PRODUCT_TERMS or when an exponent of it would
        pass poly.MAX_EXPONENT."""
        (n1, d1), (n2, d2) = p, q
        if len(n1) * len(n2) > MAX_PRODUCT_TERMS:
            raise self.error(
                k, f"a product of {len(n1)} by {len(n2)} terms "
                f"exceeds the maximum {MAX_PRODUCT_TERMS}"
            )
        try:
            return _product(len(self.chart.vars), n1, d1, n2, d2)
        except OverflowError as exc:
            raise self.error(k, str(exc)) from None

    def rational(self, k: int) -> Tuple[int, int]:
        """The literal p or p/q whose first token k, a number, is the one just
        taken, as (p, q) in lowest terms with q > 0."""
        p = self.integer(k)
        if self.tokens[k + 1] != "/":
            return p, 1
        self.k = k + 3
        if not self.tokens[k + 2].isdecimal():
            raise self.error(k + 2, "denominator must be an integer")
        q = self.integer(k + 2)
        if q == 0:
            raise self.error(k + 2, "zero denominator")
        g = gcd(p, q)
        return p // g, q // g


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse a polynomial string on the given chart."""
    parser = _Parser(text, chart)
    num, den = parser.expr()
    parser.finish()
    return _poly(chart, num, den)


def parse_rational(text: str) -> Tuple[int, int]:
    """The rational literal [+-]p or [+-]p/q in text as (numerator,
    denominator) in lowest terms, the denominator positive; anything else,
    a zero denominator or an integer past the digit limit raises
    PolyParseError."""
    parser = _Parser(text, None)
    tokens = parser.tokens
    k = 1 if tokens[0] in ("-", "+") else 0
    if not tokens[k].isdecimal():
        raise parser.error(k, f"expected a number, got {tokens[k]!r}")
    parser.k = k + 1
    p, q = parser.rational(k)
    parser.finish()
    return -p if tokens[0] == "-" else p, q
