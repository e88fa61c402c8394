"""Dense univariate polynomials over Q, and polynomials over Q[t] by parts.

A :class:`Poly` holds :class:`fractions.Fraction` coefficients only, lowest
degree first; the leading stored coefficient is always nonzero (the zero
polynomial has an empty coefficient list).  Two polynomials combine only when
they share a variable; anything else raises :class:`ValueError`.

A polynomial in Q[t][x] is a :class:`TPoly`: its ``parts[k]`` is the Q[x]
polynomial that multiplies t^k, so an identity over Q[t] holds exactly when
it holds part by part.  A ``Poly`` is the ``TPoly`` with the one part
``(p,)`` and exposes that view as ``p.parts``, so the two mix in arithmetic
and equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import InvalidInput, NotDivisible

NEG_INF = float("-inf")

XVAR = "x"
TVAR = "t"


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise InvalidInput("binomial requires nonnegative arguments")
    if k > n:
        return 0
    return math.comb(n, k)


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _power(base, n: int, one):
    """base**n by square-and-multiply, squaring only while bits remain."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Poly:
    """Immutable dense univariate polynomial."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var=XVAR):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, var=XVAR):
        return cls([c], var=var)

    @classmethod
    def variable(cls, var=XVAR):
        return cls([0, 1], var=var)

    @classmethod
    def monomial(cls, coefficient, exponent, var=XVAR):
        return cls([0] * exponent + [coefficient], var=var)

    # -- structure ---------------------------------------------------------

    def degree(self):
        """Degree of the polynomial; -inf sentinel for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, exponent):
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self):
        """The constant this polynomial equals; raises if degree > 0."""
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) > 1:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0]

    @property
    def parts(self) -> tuple:
        """This polynomial as a :class:`TPoly`'s parts: itself at t^0."""
        return (self,) if self.coeffs else ()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r}, var={self.var!r})"

    # -- ring arithmetic ---------------------------------------------------

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, var=self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], var=self.var)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs], var=self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not self.coeffs or not other.coeffs:
            return Poly([], var=self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[i + j] += a * b
        return Poly(out, var=self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, Poly.constant(1, var=self.var))

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, var=self.var)
        self._check_var(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < dlen:
                break
            factor = rem[-1] / dlead
            shift = len(rem) - dlen
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            rem.pop()
        return Poly(quo, var=self.var), Poly(rem, var=self.var)

    def exact_div(self, other) -> "Poly":
        """Exact quotient; raises :class:`NotDivisible` on nonzero remainder."""
        q, r = divmod(self, other)
        if r:
            raise NotDivisible(f"{self!r} is not divisible by {other!r}")
        return q

    # -- calculus / evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(
            [i * c for i, c in enumerate(self.coeffs)][1:], var=self.var
        )

    def __call__(self, value):
        """Evaluate by Horner's rule; value may be a scalar or Poly."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * value + c
        if result is None:
            return Fraction(0)
        return result

    def compose(self, other) -> "Poly":
        """self(other(x)) for a polynomial argument."""
        r = self(other)
        if not isinstance(r, Poly):
            r = Poly.constant(r, var=other.var if isinstance(other, Poly) else self.var)
        return r

    # -- field-coefficient normal forms -----------------------------------

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs], var=self.var)

    def content_and_primitive(self):
        """Split a rational-coefficient polynomial as content * primitive.

        The primitive part has coprime integer coefficients and a positive
        leading coefficient; the content is a (possibly negative) Fraction.
        """
        if not self.coeffs:
            return Fraction(0), self
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
        content = Fraction(num_gcd, den_lcm)
        if self.coeffs[-1] < 0:
            content = -content
        return content, Poly([c / content for c in self.coeffs], var=self.var)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor of rational-coefficient polynomials."""
    if not a and not b:
        raise InvalidInput("gcd(0, 0) is undefined")
    a._check_var(b)
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def squarefree_part(a: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of ``a``."""
    if not a:
        raise InvalidInput("squarefree part of the zero polynomial is undefined")
    d = a.derivative()
    if not d:
        # Constant polynomial.
        return Poly.constant(1, var=a.var)
    return a.exact_div(poly_gcd(a, d)).monic()


# -- Q[t][x] by powers of t ------------------------------------------------


def _as_tpoly(value, var):
    if isinstance(value, (int, Fraction)):
        value = Poly.constant(value, var=var)
    if isinstance(value, Poly):
        return TPoly(value.parts, var=value.var)
    return value if isinstance(value, TPoly) else None


class TPoly:
    """Immutable polynomial in Q[t][x]: ``parts[k]`` multiplies t^k.

    The last stored part is always nonzero (zero has no parts), so two
    equal polynomials have equal parts.
    """

    __slots__ = ("parts", "var")

    def __init__(self, parts=(), var=XVAR):
        ps = list(parts)
        while ps and not ps[-1]:
            ps.pop()
        object.__setattr__(self, "parts", tuple(ps))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *args):
        raise AttributeError("TPoly is immutable")

    def degree(self):
        """Degree in the main variable; -inf sentinel for zero."""
        return max((p.degree() for p in self.parts), default=NEG_INF)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        other = _as_tpoly(other, self.var)
        if other is None:
            return NotImplemented
        return self.var == other.var and self.parts == other.parts

    __hash__ = None

    def __repr__(self):
        return f"TPoly({list(self.parts)!r}, var={self.var!r})"

    def __add__(self, other):
        other = _as_tpoly(other, self.var)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self.parts, other.parts,
                            fillvalue=Poly([], var=self.var))
        return TPoly([p + q for p, q in pairs], var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-p for p in self.parts], var=self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = _as_tpoly(other, self.var)
        if other is None:
            return NotImplemented
        n = len(self.parts) + len(other.parts) - 1
        out = [Poly([], var=self.var)] * max(n, 0)
        for i, p in enumerate(self.parts):
            for j, q in enumerate(other.parts):
                out[i + j] = out[i + j] + p * q
        return TPoly(out, var=self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TPoly([Poly.constant(1, var=self.var)],
                                     var=self.var))
