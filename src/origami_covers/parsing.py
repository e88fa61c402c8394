"""Plain-text syntax for polynomials and rational functions.

Grammar: integer and rational literals, the main variable (``x`` unless told
otherwise), the parameter ``t``, the operators ``+ - * / ^`` and parentheses,
with ``^`` restricted to nonnegative integer literal exponents.

Input size is capped before any arithmetic runs: an exponent literal may not
pass :data:`MAX_PARSE_DEGREE`, and neither may the degree of any numerator or
denominator built while parsing, finished sums included (a part that involves
``t`` may have at most ``MAX_PARSE_DEGREE + 1`` rational coefficients in
all).  Coefficients are capped at :data:`MAX_COEFF_BITS` bits: integer
literals by their digit count, products and powers by a bound on their
coefficients taken before multiplying, and sums once they are finished.  So
no text can make the parser run for long.  Breaking a cap raises
:class:`ParseError`.

A product, or quotient by a constant, of literals, ``x``, ``t`` and their
powers is one monomial c * t^a * x^b, computed on (c, a, b) by integer
arithmetic.  A sum merges its monomial terms by (a, b) and builds one
polynomial when it ends, so reading a sum of monomials multiplies no
polynomials.  Anything else (a product with a parenthesized sum, a quotient
by a polynomial, a power of a sum) is a quotient of two
:class:`~origami_covers.poly.TPoly` values, so ``t`` is one more part rather
than a coefficient type; text without ``t`` parses to a plain
:class:`~origami_covers.poly.Poly`.

Printing a polynomial or rational function and parsing the result is the
identity; the printer is the single source of the canonical text form used in
the JSON interchange documents.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

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


def _bits(n: int) -> int:
    """ceil(log2 |n|), or 0 when |n| <= 1."""
    return max(abs(n) - 1, 0).bit_length()


def _norm_bits(p: TPoly) -> int:
    """ceil(log2) of the sum of |coefficient| (all integers while parsing).

    The sum bounds every coefficient, and a * b stays within _norm_bits(a) +
    _norm_bits(b) bits, a^n within n * _norm_bits(a)."""
    return _bits(sum(abs(part.content.numerator) * sum(map(abs, part.ints))
                     for part in p.parts))


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


class _Mono(NamedTuple):
    """The monomial c * t^a * x^b, with c an int or Fraction; zero is
    (0, 0, 0).

    Products, quotients by constants and powers of monomials work on
    (c, a, b) alone, each refused first, as by _mul and _pow, when the
    numerator or denominator of the result would break a cap."""

    c: int | Fraction
    a: int = 0
    b: int = 0

    def __mul__(self, other):
        (c, a, b), (d, e, f) = self, other
        _check_size(b + f, a + e,
                    max(_bits(c.numerator) + _bits(d.numerator),
                        _bits(c.denominator) + _bits(d.denominator)))
        c *= d
        return _Mono(c, a + e, b + f) if c else _Mono(0)

    def __pow__(self, n):
        c, a, b = self
        _check_size(b * n, a * n,
                    max(_bits(c.numerator), _bits(c.denominator)) * n)
        return _Mono(c**n, a * n, b * n)

    def __neg__(self):
        return self._replace(c=-self.c)


def _sum_expr(terms: dict, den: int, var: str) -> "_Expr":
    """The sum of the monomials c * t^a * x^b in ``terms`` {(a, b): c}, as
    one quotient by ``den``, a common denominator of every c."""
    rows = {}   # a -> the integer coefficients of t^a, over den
    for (a, b), c in terms.items():
        if c:
            row = rows.setdefault(a, [])
            row.extend([0] * (b + 1 - len(row)))
            row[b] = c.numerator * (den // c.denominator)
    parts = [Poly(rows.get(a, ()), var=var)
             for a in range(max(rows, default=-1) + 1)]
    return _Expr(TPoly(parts, var=var),
                 TPoly([Poly.constant(den, var=var)], var=var))


def _as_expr(value, var: str) -> "_Expr":
    if isinstance(value, _Mono):
        return _sum_expr({(value.a, value.b): value.c}, value.c.denominator,
                         var)
    return value


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
    """Recursive descent; a value is a :class:`_Mono` while the text builds
    a monomial and an :class:`_Expr` otherwise."""

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
        return _as_expr(expr, self.var)

    def expr(self):
        """A sum.  Its monomial terms merge by (a, b) into one table, which
        becomes one polynomial when the sum ends; other terms are added as
        quotients.  The finished numerator is checked against the caps."""
        value = self.term()
        kind, op = self.peek()
        if kind != "op" or op not in "+-":
            return value
        terms, den, others = {}, 1, []
        while True:
            if isinstance(value, _Mono):
                key = (value.a, value.b)
                terms[key] = terms.get(key, 0) + value.c
                if value.c.denominator != 1:
                    # den is the finished sum's denominator and only grows,
                    # so its cap is checked as it grows.
                    den = math.lcm(den, value.c.denominator)
                    _check_size(0, 0, _bits(den))
            else:
                others.append(value)
            kind, op = self.peek()
            if kind != "op" or op not in "+-":
                break
            self.next()
            value = self.term() if op == "+" else -self.term()
        if terms:
            others.append(_sum_expr(terms, den, self.var))
        total = others[0]
        for value in others[1:]:
            total = total + value
        _check_size(*_shape(total.num), _norm_bits(total.num))
        return total

    def term(self):
        value = self.unary()
        while True:
            kind, op = self.peek()
            if kind != "op" or op not in "*/":
                return value
            self.next()
            rhs = self.unary()
            if isinstance(value, _Mono) and isinstance(rhs, _Mono) and (
                    op == "*" or not (rhs.a or rhs.b)):
                if op == "/":
                    if not rhs.c:
                        raise ParseError("division by zero in expression")
                    rhs = _Mono(Fraction(rhs.c.denominator, rhs.c.numerator))
                value = value * rhs
            else:
                value, rhs = _as_expr(value, self.var), _as_expr(rhs, self.var)
                value = value * rhs if op == "*" else value / rhs

    def unary(self):
        kind, op = self.peek()
        if kind == "op" and op == "-":
            self.next()
            return -self.unary()
        if kind == "op" and op == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
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

    def atom(self):
        kind, value = self.next()
        if kind == "int":
            return _Mono(value)
        if kind == "name" and value == self.var:
            return _Mono(1, 0, 1)
        if kind == "name" and value == TVAR:
            return _Mono(1, 1, 0)
        if kind == "name":
            raise ParseError(f"unknown variable {value!r}")
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}")


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
        c = [part.coefficient(e) for part in p.parts]
        xpart = _power_text(p.var, e)
        terms = [(k, v) for k, v in enumerate(c) if v]
        if len(terms) > 1:
            body = f"({format_tpoly(Poly(c, var=TVAR))})"
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
