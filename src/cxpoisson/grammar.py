"""Text grammar for polynomial coefficients.

Accepted tokens: integers, rationals `p/q`, the imaginary unit `i`, chart
variable names, `+ - * ^` and parentheses.  Whitespace is ignored.  `^` takes
a nonnegative integer exponent of at most MAX_EXPONENT.  Multiplication is
always explicit (`2*x*y`).  A product, written or formed by `^`, whose
operands' term counts multiply past MAX_PRODUCT_TERMS is refused before it
is computed, so no coefficient takes unbounded time to parse.  Parentheses
and unary signs nest at most MAX_NESTING deep, and an integer literal has at
most as many digits as Python converts (sys.get_int_max_str_digits()).

The printer in poly.format_poly emits strings this parser accepts, so
parse/print round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .poly import Chart, Poly
from .scalars import GS_I, GaussScalar

# a variable name the grammar can read
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# one token, a run of whitespace, or any other character, which is refused
_TOKEN_RE = re.compile(
    rf"(?P<num>\d+)|(?P<name>{NAME_RE.pattern})|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)"
)


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


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise PolyParseError(text, m.start(), f"unexpected character {m.group()!r}")
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise PolyParseError(self.text, len(self.text), "unexpected end of input")
        self.k += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise PolyParseError(self.text, tok[2], f"expected {op!r}, got {tok[1]!r}")

    def nested(self, parse, pos: int) -> Poly:
        """parse() one nesting level deeper, refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise PolyParseError(self.text, pos, f"nesting deeper than the maximum {MAX_NESTING}")
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise PolyParseError(self.text, tok[2], f"integer of {len(tok[1])} digits is too long") from None

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise PolyParseError(self.text, tok[2], f"trailing token {tok[1]!r}")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                q = self.term()
                p = p + q if tok[1] == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                p = _product(p, self.factor(), self.text, tok[2])
            else:
                return p

    def factor(self) -> Poly:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            p = self.nested(self.factor, tok[2])
            return -p if tok[1] == "-" else p
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "num":
                raise PolyParseError(self.text, etok[2], "exponent must be an integer")
            k = self.integer(etok)
            if k > MAX_EXPONENT:
                raise PolyParseError(
                    self.text, etok[2], f"exponent {k} exceeds the maximum {MAX_EXPONENT}"
                )
            return _power(base, k, self.text, tok[2])
        return base

    def atom(self) -> Poly:
        tok = self.take()
        if tok[0] == "num":
            value = Fraction(self.integer(tok))
            nxt = self.peek()
            # rational literal p/q
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "num":
                    raise PolyParseError(self.text, den[2], "denominator must be an integer")
                q = self.integer(den)
                if q == 0:
                    raise PolyParseError(self.text, den[2], "zero denominator")
                value /= q
            return Poly.const(self.chart, GaussScalar.of(value))
        if tok[0] == "name":
            if tok[1] == "i":
                if "i" in self.chart.vars:
                    # a chart variable named i shadows the imaginary unit
                    return Poly.var(self.chart, "i")
                return Poly.const(self.chart, GS_I)
            try:
                return Poly.var(self.chart, tok[1])
            except KeyError:
                raise PolyParseError(
                    self.text, tok[2], f"unknown variable {tok[1]!r}"
                ) from None
        if tok[1] == "(":
            p = self.nested(self.expr, tok[2])
            self.expect_op(")")
            return p
        raise PolyParseError(self.text, tok[2], f"unexpected token {tok[1]!r}")


def _product(p: Poly, q: Poly, text: str, pos: int) -> Poly:
    """p * q, refused before it is formed when it exceeds MAX_PRODUCT_TERMS
    or when an exponent of it would pass poly.MAX_EXPONENT."""
    if len(p.terms) * len(q.terms) > MAX_PRODUCT_TERMS:
        raise PolyParseError(
            text, pos, f"a product of {len(p.terms)} by {len(q.terms)} terms "
            f"exceeds the maximum {MAX_PRODUCT_TERMS}"
        )
    try:
        return p * q
    except OverflowError as exc:
        raise PolyParseError(text, pos, str(exc)) from None


def _power(base: Poly, k: int, text: str, pos: int) -> Poly:
    """base^k by repeated squaring: about 2 log2(k) multiplications."""
    result = Poly.const(base.chart, 1)
    while k:
        if k & 1:
            result = _product(result, base, text, pos)
        k >>= 1
        if k:
            base = _product(base, base, text, pos)
    return result


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse a polynomial string on the given chart."""
    return _Parser(text, chart).parse()
