"""Rational functions over Q in one variable, kept in canonical reduced form.

Canonical form: numerator and denominator are coprime, and the denominator is
the primitive integer polynomial with positive leading coefficient in its
scalar class.  That normalization keeps the denominators of the covers in
their familiar expanded shapes (e.g. ``9*x^2+24*x+16`` for ``(3x+4)^2``) and
makes equality a plain representation comparison.

Coprimality is first certified modulo the one prime p = 2^61 - 1, by Euclid
over GF(p) (:func:`coprime_mod_p`); only when that certificate declines are
the two polynomials reduced by a gcd over Q.  The canonical form is unique,
so both routes reach the same representation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero
from .poly import Poly, poly_gcd


# The one prime of the coprimality certificate.
PRIME = 2**61 - 1


def _residues(p: Poly):
    """The coefficients of ``p`` modulo PRIME, or None when PRIME divides one
    of their denominators."""
    out = []
    for c in p.coeffs:
        den = c.denominator
        if den == 1:
            out.append(c.numerator % PRIME)
        elif den % PRIME:
            out.append(c.numerator * pow(den, -1, PRIME) % PRIME)
        else:
            return None
    return out


def _rem_mod_p(a: list, b: list) -> list:
    """Remainder of a by b over GF(PRIME); coefficients lowest degree first,
    b's leading coefficient nonzero."""
    a = list(a)
    inv = pow(b[-1], -1, PRIME)
    n = len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top] * inv % PRIME
        if c:
            lo = top - n
            a[lo:top] = [(u - c * v) % PRIME for u, v in zip(a[lo:top], b)]
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def coprime_mod_p(a: Poly, b: Poly) -> bool:
    """True when a and b are certified coprime over Q modulo PRIME.

    Lemma.  Suppose PRIME divides no coefficient denominator of a or b, so
    reduction mod PRIME is a ring map phi on their coefficients, and that it
    divides neither cleared leading coefficient, so phi keeps both degrees.
    If a and b had a common factor h over Q of degree >= 1, scale h to be
    primitive in Z[x].  By Gauss's lemma over the PRIME-integral rationals,
    a = h*u with u PRIME-integral too, so lc(h) divides lc(a) there and phi
    keeps the degree of h.  Then phi(h), of degree >= 1, divides both phi(a)
    and phi(b), and gcd(phi(a), phi(b)) != 1.  So gcd(phi(a), phi(b)) = 1
    proves a and b coprime over Q.

    False means only that the certificate declines: a denominator or a
    leading coefficient divisible by PRIME, a common factor modulo PRIME
    alone, or a real common factor.
    """
    ra, rb = _residues(a), _residues(b)
    if not ra or not rb or not ra[-1] or not rb[-1]:
        return False
    if len(ra) < len(rb):
        ra, rb = rb, ra
    while len(rb) > 1:
        ra, rb = rb, _rem_mod_p(ra, rb)
    # A nonzero constant remainder: gcd 1.  A zero one: gcd ra, degree >= 1.
    return bool(rb)


def _as_poly(value, var):
    if isinstance(value, Poly):
        return value
    return Poly.constant(value, var=var)


class RatFunc:
    """Immutable reduced fraction of two rational-coefficient polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var="x"):
        if isinstance(num, Poly):
            var = num.var
        elif isinstance(den, Poly):
            var = den.var
        num = _as_poly(num, var)
        den = _as_poly(den, var)
        num._check_var(den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            den = Poly.constant(1, var=var)
        else:
            # Constants are coprime to everything nonzero.
            if not (num.is_constant() or den.is_constant()
                    or coprime_mod_p(num, den)):
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            content, den = den.content_and_primitive()
            num = num * (1 / content)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    @property
    def var(self):
        return self.num.var

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError("rational function is not a polynomial")
        return self.num * (1 / self.den.constant_value())

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.is_poly() and self.as_poly() == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    # -- field arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RatFunc(other, 1, var=self.var)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return RatFunc(self.num**n, self.den**n)

    # -- calculus / substitution ------------------------------------------

    def derivative(self) -> "RatFunc":
        """Formal derivative by the quotient rule, reduced."""
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def compose(self, other) -> "RatFunc":
        """self(other), for a polynomial or rational-function argument."""
        other = self._coerce(other)
        num = self.num(other)
        den = self.den(other)
        num = self._coerce(num)
        den = self._coerce(den)
        if not den:
            raise DivisionByZero("composition hit a vanishing denominator")
        return num / den
