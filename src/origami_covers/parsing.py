"""Plain-text syntax for polynomials and rational functions.

Grammar: integer and rational literals, the main variable (``x`` unless told
otherwise), the parameter ``t``, the operators ``+ - * / ^`` and parentheses,
with ``^`` restricted to nonnegative integer literal exponents.

Input size is capped before any arithmetic runs: an exponent literal may not
pass :data:`MAX_PARSE_DEGREE`, and neither may the degree of any numerator or
denominator built while parsing (a part that involves ``t`` may have at most
``MAX_PARSE_DEGREE + 1`` rational coefficients in all).  Coefficients are
capped at :data:`MAX_COEFF_BITS` bits: integer literals by their digit count,
products and powers by a bound on their coefficients taken before multiplying.
So no text can make the parser run for long.  Breaking a cap raises
:class:`ParseError`.

Expressions are built as quotients of :class:`~origami_covers.poly.TPoly`
values, so ``t`` is one more part rather than a coefficient type; text without
``t`` parses to a plain :class:`~origami_covers.poly.Poly`.

Printing a polynomial or rational function and parsing the result is the
identity; the printer is the single source of the canonical text form used in
the JSON interchange documents.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, TPoly, TVAR
from .ratfunc import RatFunc

# 512 is above the 3(g-1) = 189 that the denominator j^3 of f2 reaches at the
# default --max-genus of 64, the largest degree a generated document holds.
MAX_PARSE_DEGREE = 512
# 4096 is above the 478 bits of the largest coefficient a generated document
# holds (in j^3 at the default --max-genus of 64), and well below the ~14,000
# bits at which CPython refuses to convert an int to or from decimal text.
MAX_COEFF_BITS = 4096

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        if m.group(1) is not None:
            # d digits stay below 10^d < 2^(10d/3); checked before int() runs.
            if 10 * len(m.group(1)) > 3 * MAX_COEFF_BITS:
                raise ParseError(
                    f"integer literal exceeds the limit {MAX_COEFF_BITS} bits"
                )
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _shape(p: TPoly):
    """(degree in the main variable, degree in t), each at least 0."""
    return max(p.degree(), 0), max(len(p.parts) - 1, 0)


def _norm_bits(p: TPoly) -> int:
    """ceil(log2) of the sum of |coefficient| (all integers while parsing).

    The sum bounds every coefficient, and a * b stays within _norm_bits(a) +
    _norm_bits(b) bits, a^n within n * _norm_bits(a)."""
    norm = sum(abs(c.numerator) for part in p.parts for c in part.coeffs)
    return max(norm - 1, 0).bit_length()


def _check_size(x_degree, t_degree, bits):
    if (x_degree + 1) * (t_degree + 1) > MAX_PARSE_DEGREE + 1:
        raise ParseError(
            f"expression exceeds the degree limit {MAX_PARSE_DEGREE}"
        )
    if bits > MAX_COEFF_BITS:
        raise ParseError(
            f"coefficients exceed the limit {MAX_COEFF_BITS} bits"
        )


def _mul(a: TPoly, b: TPoly) -> TPoly:
    """a * b, refused before multiplying when the product breaks a cap."""
    (ax, at), (bx, bt) = _shape(a), _shape(b)
    _check_size(ax + bx, at + bt, _norm_bits(a) + _norm_bits(b))
    return a * b


def _pow(a: TPoly, n: int) -> TPoly:
    ax, at = _shape(a)
    _check_size(ax * n, at * n, _norm_bits(a) * n)
    return a**n


class _Expr:
    """A quotient of two polynomials in Q[t][x] built up during parsing."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        return _Expr(
            _mul(self.num, other.den) + _mul(other.num, self.den),
            _mul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _Expr(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ParseError("division by zero in expression")
        return _Expr(_mul(self.num, other.den), _mul(self.den, other.num))

    def __neg__(self):
        return _Expr(-self.num, self.den)

    def __pow__(self, n):
        return _Expr(_pow(self.num, n), _pow(self.den, n))


class _Parser:
    def __init__(self, tokens, var):
        self.tokens = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}")

    def parse(self) -> _Expr:
        expr = self.expr()
        kind, value = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {value!r}")
        return expr

    def expr(self) -> _Expr:
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> _Expr:
        value = self.unary()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                rhs = self.unary()
                value = value * rhs if op == "*" else value / rhs
            else:
                return value

    def unary(self) -> _Expr:
        kind, op = self.peek()
        if kind == "op" and op == "-":
            self.next()
            return -self.unary()
        if kind == "op" and op == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> _Expr:
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.next()
            ekind, exponent = self.next()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer literal")
            if exponent > MAX_PARSE_DEGREE:
                raise ParseError(
                    f"exponent {exponent} exceeds the limit {MAX_PARSE_DEGREE}"
                )
            return base**exponent
        return base

    def atom(self) -> _Expr:
        kind, value = self.next()
        if kind == "int":
            parts = [Poly.constant(value, var=self.var)]
        elif kind == "name" and value == self.var:
            parts = [Poly.variable(self.var)]
        elif kind == "name" and value == TVAR:
            parts = [Poly([], var=self.var), Poly.constant(1, var=self.var)]
        elif kind == "name":
            raise ParseError(f"unknown variable {value!r}")
        elif kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        else:
            raise ParseError(f"unexpected token {value!r}")
        one = TPoly([Poly.constant(1, var=self.var)], var=self.var)
        return _Expr(TPoly(parts, var=self.var), one)


def parse_expression(text: str, var: str = "x") -> _Expr:
    if var == TVAR:
        raise ParseError("main variable cannot be 't'")
    return _Parser(_tokenize(text), var).parse()


def parse_poly(text: str, var: str = "x"):
    """Parse a polynomial over Q or Q[t].

    Returns a plain :class:`Poly` when the text does not depend on ``t``;
    otherwise a :class:`TPoly`.
    """
    expr = parse_expression(text, var)
    den = expr.den
    if den.degree() > 0 or len(den.parts) > 1:
        raise ParseError("expression is not a polynomial")
    num = expr.num * (1 / den.parts[0].constant_value())
    if len(num.parts) > 1:
        return num
    return num.parts[0] if num else Poly([], var=var)


def parse_ratfunc(text: str, var: str = "x") -> RatFunc:
    """Parse a rational function with coefficients in Q (no ``t``)."""
    expr = parse_expression(text, var)
    if len(expr.num.parts) > 1 or len(expr.den.parts) > 1:
        raise ParseError("rational functions may not involve t")
    return RatFunc(expr.num.parts[0] if expr.num else Poly([], var=var),
                   expr.den.parts[0])


# -- printing --------------------------------------------------------------


def _format_scalar(c: Fraction) -> str:
    return str(c)


def _power_text(var: str, e: int) -> str:
    return "" if e == 0 else (var if e == 1 else f"{var}^{e}")


def _term(c: Fraction, *powers) -> tuple:
    """(sign, body) of the term c times the nonempty ``powers`` texts."""
    factors = [f for f in powers if f]
    if abs(c) != 1 or not factors:
        factors.insert(0, _format_scalar(abs(c)))
    return "-" if c < 0 else "+", "*".join(factors)


def _join_terms(pieces) -> str:
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def format_tpoly(p: Poly) -> str:
    """Print a polynomial in t, lowest-degree term first."""
    if not p:
        return "0"
    return _join_terms([_term(c, _power_text(p.var, e))
                        for e, c in enumerate(p.coeffs) if c])


def format_poly(p) -> str:
    """Print a :class:`Poly` or :class:`TPoly`, highest power of the main
    variable first.

    Each power's coefficient is a polynomial in ``t``; one with several
    terms is parenthesized, e.g. ``(1 + 9*t)*x^4``.
    """
    if not p:
        return "0"
    pieces = []
    for e in range(p.degree(), -1, -1):
        c = Poly([part.coefficient(e) for part in p.parts], var=TVAR)
        xpart = _power_text(p.var, e)
        terms = [(k, v) for k, v in enumerate(c.coeffs) if v]
        if len(terms) > 1:
            body = f"({format_tpoly(c)})"
            pieces.append(("+", f"{body}*{xpart}" if xpart else body))
        elif terms:
            (k, v), = terms
            pieces.append(_term(v, _power_text(TVAR, k), xpart))
    return _join_terms(pieces)


def format_ratfunc(r: RatFunc) -> str:
    """Print a rational function; the denominator is always parenthesized."""
    if r.is_poly() and r.den == 1:
        return format_poly(r.num)
    num = format_poly(r.num)
    if _poly_term_count(r.num) > 1 or num.startswith("-"):
        num = f"({num})"
    return f"{num}/({format_poly(r.den)})"


def _poly_term_count(p: Poly) -> int:
    return sum(1 for c in p.coeffs if c)
