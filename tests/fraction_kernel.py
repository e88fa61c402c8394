"""The schoolbook Fraction kernel for Q[x], kept as a differential oracle.

A polynomial is a tuple of :class:`fractions.Fraction` coefficients, lowest
degree first, with no trailing zeros.  Each operation is the plain textbook
loop over the coefficients, which is what ``poly.Poly`` computed before it
stored a primitive integer part and a content.
"""

import math
from fractions import Fraction


def trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def add(a, b) -> tuple:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def neg(a) -> tuple:
    return tuple(-c for c in a)


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return trim(out)


def divmod_(a, b) -> tuple:
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
        rem = list(trim(rem))
    return trim(quo), trim(rem)


def monic(a) -> tuple:
    return tuple(c / a[-1] for c in a) if a else a


def content_and_primitive(a) -> tuple:
    if not a:
        return Fraction(0), a
    den_lcm = 1
    for c in a:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in a:
        num_gcd = math.gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
    content = Fraction(num_gcd, den_lcm)
    if a[-1] < 0:
        content = -content
    return content, tuple(c / content for c in a)


def gcd(a, b) -> tuple:
    """Monic gcd by Euclid over Q."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def tmul(a, b) -> list:
    """Product in Q[t][x] of two lists of parts (parts[k] multiplies t^k)."""
    if not a or not b:
        return []
    out = [()] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] = add(out[i + j], mul(p, q))
    while out and not out[-1]:
        out.pop()
    return out
