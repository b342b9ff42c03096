"""Text grammar for polynomial coefficients and rational literals.

Accepted tokens: integers, rationals `p/q`, the imaginary unit `i`, chart
variable names, `+ - * ^` and parentheses.  Whitespace is ignored.  `^` takes
a nonnegative integer exponent of at most MAX_EXPONENT.  Multiplication is
always explicit (`2*x*y`).  A product, written or formed by `^`, whose
operands' term counts multiply past MAX_PRODUCT_TERMS is refused before it
is computed, so no coefficient takes unbounded time to parse.  Parentheses
and unary signs nest at most MAX_NESTING deep, and an integer literal has at
most as many digits as Python converts (sys.get_int_max_str_digits()).

Values are built in the packed form of poly.Poly, through its trusted
constructor: `p/q` is the numerator pair (p/g, 0) over q/g with g their gcd,
`i` is (0, 1) over 1, and a variable is its packed monomial key over 1; sums
and products are Poly arithmetic on those integers.  The token list ends in
the end sentinel "", and each token is its own text, so an operator is
compared directly and the parser reads the current token without a bounds
test; a token's column is found again only for an error.

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

from .poly import FIELD_BITS, Chart, Poly, _poly

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
# deepest nesting of parentheses and unary signs; each level takes a few
# stack frames of the recursive-descent parser
MAX_NESTING = 100


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
    """Recursive descent over the tokens; self.k is the current token's
    index.  Token positions are needed only for errors, so error() finds
    them again."""

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

    def nested(self, parse, k: int) -> Poly:
        """parse() one nesting level deeper, for the token k that opens it;
        refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(k, f"nesting deeper than the maximum {MAX_NESTING}")
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p

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

    def expr(self) -> Poly:
        p = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.k]
            if op == "+":
                self.k += 1
                p = p + self.term()
            elif op == "-":
                self.k += 1
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while self.tokens[self.k] == "*":
            k = self.k
            self.k = k + 1
            p = self.product(p, self.factor(), k)
        return p

    def factor(self) -> Poly:
        k = self.k
        sign = self.tokens[k]
        if sign == "-" or sign == "+":
            self.k = k + 1
            p = self.nested(self.factor, k)
            return -p if sign == "-" else p
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        k = self.k
        if self.tokens[k] != "^":
            return base
        self.k = k + 2
        if not self.tokens[k + 1].isdecimal():
            raise self.error(k + 1, "exponent must be an integer")
        e = self.integer(k + 1)
        if e > MAX_EXPONENT:
            raise self.error(k + 1, f"exponent {e} exceeds the maximum {MAX_EXPONENT}")
        # base^e by repeated squaring: about 2 log2(e) multiplications
        result = _poly(base.chart, {0: (1, 0)}, 1)
        while e:
            if e & 1:
                result = self.product(result, base, k)
            e >>= 1
            if e:
                base = self.product(base, base, k)
        return result

    def product(self, p: Poly, q: Poly, k: int) -> Poly:
        """p * q for the operator at token k, refused before it is formed
        when it exceeds MAX_PRODUCT_TERMS or when an exponent of it would
        pass poly.MAX_EXPONENT."""
        if len(p._num) * len(q._num) > MAX_PRODUCT_TERMS:
            raise self.error(
                k, f"a product of {len(p._num)} by {len(q._num)} terms "
                f"exceeds the maximum {MAX_PRODUCT_TERMS}"
            )
        try:
            return p * q
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

    def atom(self) -> Poly:
        k = self.k
        tok = self.tokens[k]
        self.k = k + 1
        chart = self.chart
        if tok.isdecimal():
            p, q = self.rational(k)
            return _poly(chart, {0: (p, 0)}, q) if p else _poly(chart, {}, 1)
        # a chart variable named i shadows the imaginary unit
        if tok in chart.vars and tok not in _NOT_NAMES:
            return _poly(chart, {1 << (FIELD_BITS * chart.vars.index(tok)): (1, 0)}, 1)
        if tok == "i":
            return _poly(chart, {0: (0, 1)}, 1)
        if tok == "(":
            p = self.nested(self.expr, k)
            close = self.tokens[self.k]
            if close != ")":
                raise self.error(self.k, f"expected ')', got {close!r}")
            self.k += 1
            return p
        if NAME_RE.match(tok):
            raise self.error(k, f"unknown variable {tok!r}")
        raise self.error(k, f"unexpected token {tok!r}")


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse a polynomial string on the given chart."""
    parser = _Parser(text, chart)
    p = parser.expr()
    parser.finish()
    return p


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
