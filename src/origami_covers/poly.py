"""Dense univariate polynomials over Q, and polynomials over Q[t] by parts.

A :class:`Poly` is stored as one rational ``content`` times a primitive
integer coefficient tuple ``ints``, lowest degree first: the integers are
coprime and the last one is positive, so every polynomial has one stored
form (zero has the empty tuple and content 0).  ``coeffs`` and
:meth:`Poly.coefficient` read the rational coefficients back as
:class:`fractions.Fraction`\\ s.  The variable is always x; t is the index
of a :class:`TPoly` part.

A product multiplies the contents and the primitive parts.  The primitive
parts multiply as one Python ``int`` each (Kronecker substitution), and by
Gauss's lemma their product is primitive again, so it needs no gcd.

A polynomial in Q[t][x] is a :class:`TPoly`: its ``parts[k]`` is the Q[x]
polynomial that multiplies t^k, so an identity over Q[t] holds exactly when
it holds part by part.  A ``Poly`` is the ``TPoly`` with the one part
``(p,)`` and exposes that view as ``p.parts``, so the two mix in arithmetic
and equality.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import count, zip_longest

from .errors import InvalidInput, NotDivisible

NEG_INF = float("-inf")

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _make(ints: tuple, content: Fraction) -> "Poly":
    """The Poly content * ints, for ints already primitive with a positive
    last entry (or empty, with content 0)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "ints", ints)
    object.__setattr__(p, "content", content)
    return p


def _primitive(ints: list, scale) -> tuple:
    """(primitive tuple, content) of scale * ints, for any integer list:
    trailing zeros dropped and the gcd and sign of the rest moved into the
    content."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
    return tuple(ints), scale * g


def _normal(ints: list, scale) -> "Poly":
    """The Poly scale * ints, for any integer list."""
    return _make(*_primitive(ints, scale))


def _pack(a: tuple, size: int) -> int:
    """sum a[i] * 256^(size*i), one slot of ``size`` bytes per entry; each
    |a[i]| < 2^(8*size - 1).  A negative entry borrows one from the next
    slot, so each slot holds its entry plus the incoming borrow in two's
    complement and the whole reads back as one signed int."""
    data, borrow = [], 0
    for c in a:
        c += borrow
        data.append(c.to_bytes(size, "little", signed=True))
        borrow = -(c < 0)
    return int.from_bytes(b"".join(data), "little", signed=True)


def _kronecker(a: tuple, b: tuple) -> tuple:
    """The integer coefficients of a * b, as one product of packed ints.

    A coefficient of the product is a sum of at most min(len a, len b)
    products, so its magnitude is at most that bound; a slot holds the
    bound's bits plus a sign bit, rounded up to whole bytes.  Unpacking
    reads each slot plus the borrow of the slot below it.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    size = (bound.bit_length() + 8) // 8
    half, full = 1 << (8 * size - 1), 1 << (8 * size)
    n = len(a) + len(b) - 1
    data = memoryview((_pack(a, size) * _pack(b, size)).to_bytes(
        n * size, "little", signed=True))
    out, carry = [], 0
    for i in range(0, n * size, size):
        c = int.from_bytes(data[i:i + size], "little") + carry
        carry = c >= half
        out.append(c - full if carry else c)
    return tuple(out)


class Poly:
    """Immutable dense univariate polynomial: ``content`` times ``ints``."""

    __slots__ = ("ints", "content")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        try:
            dens = [c.denominator for c in cs]
            nums = [c.numerator for c in cs]
        except AttributeError:
            raise TypeError("coefficients must be rational numbers") from None
        den = math.lcm(*dens)
        if den != 1:
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        ints, content = _primitive(nums, Fraction(1, den))
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "content", content)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def variable(cls):
        return cls([0, 1])

    @classmethod
    def monomial(cls, coefficient, exponent):
        return cls.constant(coefficient).shift(exponent)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, lowest degree first."""
        return tuple(self.content * c if c else ZERO for c in self.ints)

    def degree(self):
        """Degree of the polynomial; -inf sentinel for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INF

    def coefficient(self, exponent):
        if 0 <= exponent < len(self.ints) and self.ints[exponent]:
            return self.content * self.ints[exponent]
        return ZERO

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    def constant_value(self):
        """The constant this polynomial equals; raises if degree > 0."""
        if len(self.ints) > 1:
            raise ValueError("polynomial is not constant")
        return self.content

    @property
    def parts(self) -> tuple:
        """This polynomial as a :class:`TPoly`'s parts: itself at t^0."""
        return (self,) if self.ints else ()

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.content == other.content

    __hash__ = None

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not other.ints:
            return self
        if not self.ints:
            return other
        # Both contents are integer multiples u, v of scale.
        ca, cb = self.content, other.content
        den = math.lcm(ca.denominator, cb.denominator)
        u = ca.numerator * (den // ca.denominator)
        v = cb.numerator * (den // cb.denominator)
        g = math.gcd(u, v)
        u, v = u // g, v // g
        a = [u * c for c in self.ints]
        b = [v * c for c in other.ints]
        if len(a) < len(b):
            a, b = b, a
        a[:len(b)] = [c + d for c, d in zip(a, b)]
        return _normal(a, Fraction(g, den))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ints, -self.content)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return _make((), ZERO)
            return _make(self.ints, self.content * other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return _make((), ZERO)
        # A constant's primitive part is (1,), which multiplies as 1.
        ints = b if a == (1,) else a if b == (1,) else _kronecker(a, b)
        return _make(ints, self.content * other.content)

    __rmul__ = __mul__

    def shift(self, n: int) -> "Poly":
        """self * x^n, by moving the primitive tuple up n places: the
        content stays and no product is made."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not self.ints:
            return self
        return _make((0,) * n + self.ints, self.content)

    def __pow__(self, n: int):
        return _power(self, n, Poly.constant(1))

    def __divmod__(self, other):
        """Quotient and remainder over Q.

        The remainder of the primitive parts is kept as integers ``rem``
        over one denominator ``scale``: before each step ``rem`` is
        multiplied by just enough of the divisor's leading coefficient that
        the step's quotient term is an integer over ``scale``.
        """
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.ints, other.ints
        dlen = len(b)
        if len(a) < dlen:
            return _make((), ZERO), self
        lead, low = b[-1], b[:-1]
        rem, scale = list(a), 1
        terms = [None] * (len(a) - dlen + 1)   # (numerator, scale) pairs
        for shift in range(len(a) - dlen, -1, -1):
            top = rem.pop()
            if not top:
                terms[shift] = (0, scale)
                continue
            g = math.gcd(top, lead)
            m, f = lead // g, top // g
            if m != 1:
                rem = [m * c for c in rem]
                scale *= m
            terms[shift] = (f, scale)
            rem[shift:] = [c - f * d for c, d in zip(rem[shift:], low)]
        ratio = self.content / other.content
        quo = [f * (scale // s) for f, s in terms]
        return _normal(quo, ratio / scale), _normal(rem, self.content / scale)

    def exact_div(self, other) -> "Poly":
        """Exact quotient; raises :class:`NotDivisible` when there is none.

        By Gauss's lemma the primitive parts A and B divide over Z when the
        polynomials divide over Q, and their quotient is primitive with a
        positive leading coefficient.  So A is divided by B over Z, and the
        division stops at the first step that shows it cannot be exact: a
        top coefficient that lc(B) does not divide, or a quotient
        coefficient above 2^(deg q + 1) * ||A||_1, which no factor q of A
        can have (Mignotte, Math. Comp. 28, 1974).
        """
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.ints, other.ints
        if not a:
            return self
        lead, low = b[-1], b[:-1]
        rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
        bound = sum(map(abs, a)) << len(quo)
        for shift in reversed(range(len(quo))):
            top = rem.pop()
            if not top:
                continue
            f, r = divmod(top, lead)
            if r or abs(f) > bound:
                raise NotDivisible("the division is not exact")
            quo[shift] = f
            rem[shift:] = [c - f * d for c, d in zip(rem[shift:], low)]
        if any(rem):
            raise NotDivisible("the division is not exact")
        return _make(tuple(quo), self.content / other.content)

    # -- calculus / evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return _normal([i * c for i, c in enumerate(self.ints)][1:],
                       self.content)

    def __call__(self, value):
        """Evaluate by Horner's rule; value may be a scalar or Poly."""
        if not self.ints:
            return ZERO
        result = self.ints[-1]
        for c in reversed(self.ints[:-1]):
            result = result * value + c
        return result * self.content

    # -- field-coefficient normal forms -----------------------------------

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return _make(self.ints, Fraction(1, self.ints[-1]))

    def content_and_primitive(self):
        """Split a rational-coefficient polynomial as content * primitive.

        The primitive part has coprime integer coefficients and a positive
        leading coefficient; the content is a (possibly negative) Fraction.
        """
        if not self.ints:
            return ZERO, self
        return self.content, _make(self.ints, ONE)


# -- gcd: images over GF(p), lifted to Z[x] by CRT -------------------------


def _rem_mod_p(a: list, b: list, p: int) -> list:
    """Remainder of a by b over GF(p); coefficients lowest degree first,
    b's leading coefficient nonzero."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    n = len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top] * inv % p
        if c:
            lo = top - n
            a[lo:top] = [(u - c * v) % p for u, v in zip(a[lo:top], b)]
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def gcd_mod_p(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p), by Euclid, of two residue lists (lowest degree
    first) whose leading coefficients are nonzero."""
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is exact for
    odd n > 37 below 3.18 * 10^23 (Sorenson and Webster 2015)."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(base, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime(i: int) -> int:
    """The i-th prime below 2^61, largest first, so _prime(0) = 2^61 - 1;
    each is found once per process."""
    n = _prime(i - 1) - 2 if i else 2**61 - 1
    while not _is_prime(n):
        n -= 2
    return n


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor of rational-coefficient polynomials.

    Brown's modular gcd, in integers throughout (W. S. Brown, J. ACM 18(4),
    1971; Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
    ch. 7).  A and B are the primitive parts of a and b, G their primitive
    gcd and gamma = gcd(lc A, lc B).  For each prime p dividing neither
    lc(A) nor lc(B), G mod p divides the monic image gcd(A mod p, B mod p).
    Images of the least degree seen are scaled by gamma, combined by CRT
    into residues mod M read in (-M/2, M/2], and the primitive part of this
    lift is accepted when it divides both A and B.

    Lemma: the accepted lift is the gcd.  G is primitive and lc(G) divides
    gamma, so for a prime whose image has degree deg G, gamma times the
    image is H = (gamma/lc G) * G mod p.  Once M > 2 ||H||_inf the residues
    are H, whose primitive part G divides both; and any earlier lift that
    divides both is a common divisor of degree at least deg G.

    Lemma: an image of degree 0 proves a and b coprime.  Suppose a and b
    had a common factor over Q of degree >= 1, and scale it to h, primitive
    in Z[x].  By Gauss's lemma A = h*u with u in Z[x], so lc(h) divides
    lc(A), which p does not divide; reduction mod p keeps the degree of h.
    Then h mod p, of degree >= 1, divides both images, and their gcd is
    not 1.  So the first prime, 2^61 - 1, answers almost every coprime
    pair by itself.
    """
    if not a and not b:
        raise InvalidInput("gcd(0, 0) is undefined")
    if not a or not b:
        return (a or b).monic()
    big_a, big_b = a.ints, b.ints
    leads = big_a[-1] * big_b[-1]
    gamma = math.gcd(big_a[-1], big_b[-1])
    image, modulus = None, 1
    for p in map(_prime, count()):
        if not leads % p:
            continue
        g = gcd_mod_p([c % p for c in big_a], [c % p for c in big_b], p)
        if len(g) == 1:
            return Poly.constant(1)
        g = [c * gamma % p for c in g]
        if image is None or len(g) < len(image):
            image, modulus = g, p
        elif len(g) > len(image):
            continue
        else:
            step = pow(modulus, -1, p)
            image = [u + modulus * ((v - u) * step % p)
                     for u, v in zip(image, g)]
            modulus *= p
        lift = _normal([c - modulus if 2 * c > modulus else c
                        for c in image], ONE)
        try:
            a.exact_div(lift)
            b.exact_div(lift)
        except NotDivisible:
            continue
        return lift.monic()


# -- Q[t][x] by powers of t ------------------------------------------------


def _stack(parts: tuple, s: int) -> Poly:
    """The Poly sum of parts[k] * x^(s*k), for parts of degree below s."""
    den = math.lcm(*(p.content.denominator for p in parts))
    ints = []
    for p in parts:
        scale = p.content.numerator * (den // p.content.denominator)
        ints.extend([scale * c for c in p.ints] + [0] * (s - len(p.ints)))
    return _normal(ints, Fraction(1, den))


def _as_tpoly(value):
    if isinstance(value, (int, Fraction)):
        value = Poly.constant(value)
    if isinstance(value, Poly):
        return TPoly(value.parts)
    return value if isinstance(value, TPoly) else None


class TPoly:
    """Immutable polynomial in Q[t][x]: ``parts[k]`` multiplies t^k.

    The last stored part is always nonzero (zero has no parts), so two
    equal polynomials have equal parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = list(parts)
        while ps and not ps[-1]:
            ps.pop()
        object.__setattr__(self, "parts", tuple(ps))

    def __setattr__(self, *args):
        raise AttributeError("TPoly is immutable")

    def degree(self):
        """Degree in x; -inf sentinel for zero."""
        return max((p.degree() for p in self.parts), default=NEG_INF)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        other = _as_tpoly(other)
        if other is None:
            return NotImplemented
        return self.parts == other.parts

    __hash__ = None

    def __repr__(self):
        return f"TPoly({list(self.parts)!r})"

    def __add__(self, other):
        other = _as_tpoly(other)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self.parts, other.parts, fillvalue=Poly())
        return TPoly([p + q for p, q in pairs])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-p for p in self.parts])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = _as_tpoly(other)
        if other is None:
            return NotImplemented
        short, long = sorted((self.parts, other.parts), key=len)
        if len(short) <= 1:
            # A factor free of t multiplies each part: nothing to stack.
            return TPoly([short[0] * p for p in long] if short else ())
        # With t = x^s for s above the degree of every product of two parts,
        # the parts of the product do not overlap: one Poly product holds
        # them all, s coefficients per power of t.
        s = self.degree() + other.degree() + 1
        product = _stack(self.parts, s) * _stack(other.parts, s)
        ints = product.ints
        return TPoly([_normal(list(ints[i:i + s]), product.content)
                      for i in range(0, len(ints), s)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TPoly([Poly.constant(1)]))
