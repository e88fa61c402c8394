"""Rational functions over Q in one variable, as certified canonical values.

A :class:`RatFunc` is an immutable pair (num, den) in canonical form:
numerator and denominator are coprime, and the denominator is the primitive
integer polynomial with positive leading coefficient in its scalar class.
That keeps the covers' denominators in their familiar expanded shapes (e.g.
``9*x^2+24*x+16`` for ``(3x+4)^2``) and makes equality a comparison of pairs.
There is no fraction arithmetic: a certificate reads ``num`` and ``den`` and
states its claim as a polynomial identity with cleared denominators.

Coprimality is settled by :func:`poly.poly_gcd`.  For almost every coprime
pair its first image, over GF(p) for p = 2^61 - 1, has degree 0 and proves
it; any other pair goes on to further primes and a lift.  The canonical form
is unique, so every route reaches the same representation.  The one other
route is :meth:`RatFunc.coprime`, for pairs whose coprimality a lemma has
already settled.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero
from .poly import Poly, poly_gcd


def _as_poly(value):
    return value if isinstance(value, Poly) else Poly.constant(value)


class RatFunc:
    """Immutable certified canonical pair (num, den); it has no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        # Constants are coprime to everything nonzero.
        if num and den and not (num.is_constant() or den.is_constant()):
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._settle(num, den)

    @classmethod
    def coprime(cls, num, den):
        """The canonical pair for num/den with no gcd taken.

        The caller must already have proven gcd(num, den) = 1, by a lemma
        stated where it is called; nothing here checks it.  The result is
        then the pair ``RatFunc(num, den)`` would build.  Parsed input never
        comes here: a document's fractions always go through the gcd.
        """
        r = object.__new__(cls)
        r._settle(_as_poly(num), _as_poly(den))
        return r

    def _settle(self, num, den):
        """Store coprime num, den with den primitive and positive-leading."""
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            den = Poly.constant(1)
        else:
            content, den = den.content_and_primitive()
            num = num * (1 / content)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            # A canonical denominator is constant exactly when it is 1.
            return self.den == 1 and self.num == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"
