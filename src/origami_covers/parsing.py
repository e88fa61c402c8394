"""Plain-text syntax for polynomials and rational functions.

Grammar: integer and rational literals, the variable ``x``, the parameter
``t``, the operators ``+ - * / ^`` and parentheses, with ``^`` restricted to
nonnegative integer literal exponents.  Literals are ASCII digits, the only
ones the printer writes; any other digit is an unexpected character.

Input size is capped before any arithmetic runs: an exponent literal may not
pass :data:`MAX_PARSE_DEGREE`, and neither may the degree of any product,
power or denominator built while parsing, or of any finished sum (a part that
involves ``t`` may have at most ``MAX_PARSE_DEGREE + 1`` rational
coefficients in all).  Coefficients are capped at :data:`MAX_COEFF_BITS`
bits: integer literals by their digit count, products and powers by a bound
on their coefficients taken before multiplying, and sums once they are
finished.  So no text can make the parser run for long.  Parentheses and
unary signs may nest at most :data:`MAX_NESTING` deep, so no text can make
the recursive descent exhaust the interpreter's stack.  Breaking a cap
raises :class:`ParseError`.

The text is split into tokens by one regular-expression scan.  A product of
literals, ``x``, ``t`` and their powers, each factor maybe divided by a
constant factor (``/`` takes one factor, so ``1/2*x`` is ``x/2``), is one
monomial c * t^a * x^b, computed on (c, a, b) by integer arithmetic.  A sum
merges its monomial terms by (a, b) and builds one polynomial when it ends,
so reading a sum of monomials multiplies no polynomials.  Anything else (a
product with a parenthesized sum, a quotient by a polynomial, a power of a
sum) is a quotient of two :class:`~origami_covers.poly.TPoly` values, so
``t`` is one more part rather than a coefficient type; text without ``t``
parses to a plain :class:`~origami_covers.poly.Poly`.  The quotients of one
sum are grouped by denominator: numerators over equal denominators are
added, and the product of the distinct denominators is checked against the
caps before any cross product, so whether a sum is accepted does not depend
on the order of its terms.

Printing a polynomial or rational function and parsing the result is the
identity; the printer is the single source of the canonical text form used in
the JSON interchange documents.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError
from .poly import ONE, Poly, TPoly, _normal
from .ratfunc import RatFunc

# 512 is above the 3(g-1) = 189 that the denominator j^3 of f2 reaches at the
# default --max-genus of 64, the largest degree a generated document holds.
MAX_PARSE_DEGREE = 512
# 4096 is above the 478 bits of the largest coefficient a generated document
# holds (in j^3 at the default --max-genus of 64), and well below the ~14,000
# bits at which CPython refuses to convert an int to or from decimal text.
MAX_COEFF_BITS = 4096
# Generated documents nest at most 2 deep.  Each parenthesis costs the parser
# three stack frames and each unary sign one, so text at this depth stays far
# inside CPython's default recursion limit of 1000, whatever the caller's
# stack depth.
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z]+|[-+*/^()])|(\S))")
# d digits stay below 10^d < 2^(10d/3), so a literal of at most this many
# digits is within MAX_COEFF_BITS; checked before int() runs.
_MAX_DIGITS = 3 * MAX_COEFF_BITS // 10


def _tokenize(text: str) -> list:
    """The tokens of ``text`` (int literals, names and operator characters),
    then None."""
    tokens = [word or (int(digits) if 0 < len(digits) <= _MAX_DIGITS
                       else _token_error(text))
              for digits, word, _ in _TOKEN_RE.findall(text)]
    tokens.append(None)
    return tokens


def _token_error(text: str):
    """Raise for the first bad character or over-long literal in ``text``;
    a token starts where the previous one ends, spaces included."""
    for m in _TOKEN_RE.finditer(text):
        digits, _, bad = m.groups()
        if bad:
            raise ParseError(
                f"unexpected character {bad!r} at position {m.start()}")
        if digits and len(digits) > _MAX_DIGITS:
            raise ParseError(
                f"integer literal exceeds the limit {MAX_COEFF_BITS} bits")


def _shape(p: TPoly):
    """(degree in x, degree in t), each at least 0."""
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


def _sum_expr(terms: dict, den: int) -> "_Expr":
    """The sum of the monomials c * t^a * x^b in ``terms`` {(a, b): c}, as
    one quotient by ``den``, a common denominator of every c."""
    rows = {}   # a -> the integer coefficients of t^a, over den
    for (a, b), c in terms.items():
        if c:
            row = rows.setdefault(a, [])
            row.extend([0] * (b + 1 - len(row)))
            row[b] = c.numerator * (den // c.denominator)
    parts = [_normal(rows.get(a, []), ONE)
             for a in range(max(rows, default=-1) + 1)]
    return _Expr(TPoly(parts), TPoly([_normal([den], ONE)]))


def _as_expr(value) -> "_Expr":
    if type(value) is tuple:
        c, a, b = value
        return _sum_expr({(a, b): c}, c.denominator)
    return value


def _add(values: list) -> "_Expr":
    """The sum of the quotients ``values``.  Numerators over equal
    denominators are added; the distinct denominators multiply into one,
    refused first when it breaks a cap, so the verdict does not depend on
    the order of the terms."""
    groups = {}
    for value in values:
        key = tuple((part.ints, part.content) for part in value.den.parts)
        same = groups.get(key)
        groups[key] = value if same is None else _Expr(same.num + value.num,
                                                       value.den)
    values = list(groups.values())
    xs, ts = zip(*(_shape(value.den) for value in values))
    _check_size(sum(xs), sum(ts), sum(_norm_bits(v.den) for v in values))
    total = values[0]
    for value in values[1:]:
        total = _Expr(total.num * value.den + value.num * total.den,
                      total.den * value.den)
    return total


class _Expr:
    """A quotient of two polynomials in Q[t][x] built up during parsing."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __mul__(self, other):
        return _Expr(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ParseError("division by zero in expression")
        if _shape(self.den) == (0, 0) and self.den == other.den:
            return _Expr(self.num, other.num)
        return _Expr(_mul(self.num, other.den), _mul(self.den, other.num))

    def __neg__(self):
        return _Expr(-self.num, self.den)

    def __pow__(self, n):
        return _Expr(_pow(self.num, n), _pow(self.den, n))


class _Parser:
    """Recursive descent over the token list.  A value is the tuple
    (c, a, b), the monomial c * t^a * x^b with c an int or Fraction (zero
    is (0, 0, 0)), while the text builds a monomial, and an :class:`_Expr`
    otherwise."""

    def __init__(self, tokens):
        self.tokens, self.pos, self.depth = tokens, 0, 0

    def nest(self):
        """Enter one more parenthesis or unary sign."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than the limit {MAX_NESTING}")

    def parse(self) -> _Expr:
        value = self.expr()
        if self.tokens[self.pos] is not None:
            raise ParseError(
                f"trailing input starting at {self.tokens[self.pos]!r}")
        return _as_expr(value)

    def expr(self):
        """A sum.  Its monomial terms merge by (a, b) into one table, which
        becomes one polynomial when the sum ends; other terms are added as
        quotients.  The finished numerator is checked against the caps."""
        tokens = self.tokens
        value = self.term()
        op = tokens[self.pos]
        if op != "+" and op != "-":
            return value
        terms, den, others, op = {}, 1, [], "+"
        while True:
            if type(value) is tuple:
                c, a, b = value
                terms[a, b] = terms.get((a, b), 0) + (c if op == "+" else -c)
                if c.denominator != 1:
                    # den is the finished sum's denominator and only grows,
                    # so its cap is checked as it grows.
                    den = math.lcm(den, c.denominator)
                    _check_size(0, 0, _bits(den))
            else:
                others.append(value if op == "+" else -value)
            op = tokens[self.pos]
            if op != "+" and op != "-":
                break
            self.pos += 1
            value = self.term()
        if terms:
            others.append(_sum_expr(terms, den))
        total = others[0] if len(others) == 1 else _add(others)
        _check_size(*_shape(total.num), _norm_bits(total.num))
        return total

    def term(self):
        """A product.  While it is a monomial it is kept as (c, a, b), and
        each product is refused first, as by _mul, when the numerator or
        denominator of the result would break a cap.  ``/`` takes one
        factor, so ``1/2*x`` is (1/2)*x."""
        tokens = self.tokens
        value = self.factor()
        while True:
            op = tokens[self.pos]
            if op != "*" and op != "/":
                return value
            self.pos += 1
            rhs = self.factor()
            if type(value) is not tuple or type(rhs) is not tuple or (
                    op == "/" and (rhs[1] or rhs[2])):
                value, rhs = _as_expr(value), _as_expr(rhs)
                value = value * rhs if op == "*" else value / rhs
                continue
            (c, a, b), (d, e, f) = value, rhs
            if op == "/":
                if not d:
                    raise ParseError("division by zero in expression")
                d = Fraction(d.denominator, d.numerator)
            # Every c and d is within MAX_COEFF_BITS, so a unit factor cannot
            # break the coefficient cap.
            _check_size(b + f, a + e, 0 if c == 1 or d == 1 else max(
                _bits(c.numerator) + _bits(d.numerator),
                _bits(c.denominator) + _bits(d.denominator)))
            c *= d
            value = (c, a + e, b + f) if c else (0, 0, 0)

    def factor(self):
        """A signed power of an atom: a literal, a variable or a
        parenthesized sum."""
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            value = (tok, 0, 0)
        elif tok == "x":
            value = (1, 0, 1)
        elif tok == "t":
            value = (1, 1, 0)
        elif tok == "-" or tok == "+":
            self.nest()
            value = self.factor()
            self.depth -= 1
            if tok == "+":
                return value
            return ((-value[0], value[1], value[2]) if type(value) is tuple
                    else -value)
        elif tok == "(":
            self.nest()
            value = self.expr()
            self.depth -= 1
            if tokens[self.pos] != ")":
                raise ParseError(f"expected ')', found {tokens[self.pos]!r}")
            self.pos += 1
        elif type(tok) is str and tok.isalpha():
            raise ParseError(f"unknown variable {tok!r}")
        else:
            raise ParseError(f"unexpected token {tok!r}")
        if tokens[self.pos] != "^":
            return value
        n = tokens[self.pos + 1]
        if type(n) is not int:
            raise ParseError("exponent must be a nonnegative integer literal")
        if n > MAX_PARSE_DEGREE:
            raise ParseError(
                f"exponent {n} exceeds the limit {MAX_PARSE_DEGREE}")
        self.pos += 2
        if type(value) is not tuple:
            return value**n
        c, a, b = value
        _check_size(b * n, a * n, 0 if c == 1 else
                    max(_bits(c.numerator), _bits(c.denominator)) * n)
        return c**n, a * n, b * n


def parse_expression(text: str) -> _Expr:
    return _Parser(_tokenize(text)).parse()


def parse_poly(text: str):
    """Parse a polynomial over Q or Q[t].

    Returns a plain :class:`Poly` when the text does not depend on ``t``;
    otherwise a :class:`TPoly`.
    """
    expr = parse_expression(text)
    den = expr.den
    if den.degree() > 0 or len(den.parts) > 1:
        raise ParseError("expression is not a polynomial")
    c = den.parts[0].constant_value()
    num = expr.num if c == 1 else expr.num * (1 / c)
    if len(num.parts) > 1:
        return num
    return num.parts[0] if num else Poly()


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function with coefficients in Q (no ``t``)."""
    expr = parse_expression(text)
    if len(expr.num.parts) > 1 or len(expr.den.parts) > 1:
        raise ParseError("rational functions may not involve t")
    return RatFunc(expr.num.parts[0] if expr.num else Poly(),
                   expr.den.parts[0])


# -- printing --------------------------------------------------------------


def _power_text(symbol: str, e: int) -> str:
    return "" if e == 0 else (symbol if e == 1 else f"{symbol}^{e}")


def _term(c: Fraction, *powers) -> tuple:
    """(sign, body) of the term c times the nonempty ``powers`` texts."""
    factors = [f for f in powers if f]
    if abs(c) != 1 or not factors:
        factors.insert(0, str(abs(c)))
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
    return _join_terms([_term(c, _power_text("t", e))
                        for e, c in enumerate(p.coeffs) if c])


def format_poly(p) -> str:
    """Print a :class:`Poly` or :class:`TPoly`, highest power of x first.

    Each power's coefficient is a polynomial in ``t``; one with several
    terms is parenthesized, e.g. ``(1 + 9*t)*x^4``.
    """
    if not p:
        return "0"
    pieces = []
    for e in range(p.degree(), -1, -1):
        c = [part.coefficient(e) for part in p.parts]
        xpart = _power_text("x", e)
        terms = [(k, v) for k, v in enumerate(c) if v]
        if len(terms) > 1:
            body = f"({format_tpoly(Poly(c))})"
            pieces.append(("+", f"{body}*{xpart}" if xpart else body))
        elif terms:
            (k, v), = terms
            pieces.append(_term(v, _power_text("t", k), xpart))
    return _join_terms(pieces)


def format_ratfunc(r: RatFunc) -> str:
    """Print a rational function; the denominator is always parenthesized."""
    if r.is_poly() and r.den == 1:
        return format_poly(r.num)
    num = format_poly(r.num)
    if sum(1 for c in r.num.ints if c) > 1 or num.startswith("-"):
        num = f"({num})"
    return f"{num}/({format_poly(r.den)})"
