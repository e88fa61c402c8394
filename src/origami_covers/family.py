"""The genus-g family of totally ramified covers of the Legendre curves.

For each genus g >= 1 this builds the source curve

    C_t : y^2 = x (x+1) (x^(2g-1) + t j(x)^2)

with its degree-(2g-1) map (x, y) -> (x^(2g-1)/j^2, x^(g-1) k / j^3 * y) to
the Legendre curve E_t : y^2 = x (x+1) (x+t), where j and k are the even and
odd binomial companion polynomials of degree g-1: with u^2 = x+1,
j = ((1+u)^n + (1-u)^n) / 2 and u k = ((1+u)^n - (1-u)^n) / 2 for n = 2g-1.

Both are built from their closed forms, O(g) integer operations and no
composition: [x^m] j = 4^(g-1-m) n binomial(n-m, m) / (n-m) and
[x^m] k = 4^(g-1-m) binomial(n-1-m, m).  These are the coefficients of the
Dickson polynomials D_n(2, -x) / 2 and E_(n-1)(2, -x), the second a scaled
Chebyshev polynomial of the second kind (Lidl, Mullen and Turnwald,
*Dickson Polynomials*, 1993, ch. 2; Mason and Handscomb, *Chebyshev
Polynomials*, 2003, ch. 2).  The rediscovery pipeline in ``degeneration``
derives the same pair independently, from the binomial expansion of the
two-branch map with u^2 = x+1 substituted by Pascal rows.

:func:`family_from` checks the hypotheses of the lemma the family rests on,
once, and returns their outcome as the instance's ``certificate``;
:func:`recognise` checks the same hypotheses on a cover read from a
document, so that ``verify`` proves a family-shaped document by the lemma.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    ramification_report,
    verify_cover_identity,
)
from .errors import InvalidGenus, PipelineError
from .poly import Poly, TPoly
from .ratfunc import RatFunc


def j_poly(g: int) -> Poly:
    """Sum of binomial(2g-1, 2i) * (x+1)^i for i = 0..g-1, in closed form.

    With n = 2g-1, [x^m] j = 4^(g-1-m) * n * binomial(n-m, m) / (n-m), and
    the division is exact: j(x) = D_n(2, -x) / 2 for the Dickson polynomial
    D_n(y, a) = sum_m n/(n-m) binomial(n-m, m) (-a)^m y^(n-2m) of the first
    kind (Lidl, Mullen and Turnwald, *Dickson Polynomials*, ch. 2).
    """
    _check_genus(g)
    n = 2 * g - 1
    return Poly([(n * math.comb(n - m, m) // (n - m)) << 2 * (g - 1 - m)
                 for m in range(g)])


def k_poly(g: int) -> Poly:
    """Sum of binomial(2g-1, 2i+1) * (x+1)^i for i = 0..g-1, in closed form.

    With n = 2g-1, [x^m] k = 4^(g-1-m) * binomial(n-1-m, m): k(x) =
    E_(n-1)(2, -x) for the Dickson polynomial E_(n-1)(y, a) =
    sum_m binomial(n-1-m, m) (-a)^m y^(n-1-2m) of the second kind, that is
    a^((n-1)/2) U_(n-1)(y / (2 sqrt a)) with U the Chebyshev polynomial of
    the second kind (Mason and Handscomb, *Chebyshev Polynomials*, ch. 2).
    """
    _check_genus(g)
    n = 2 * g - 1
    return Poly([math.comb(n - 1 - m, m) << 2 * (g - 1 - m)
                 for m in range(g)])


def _check_genus(g: int):
    if not isinstance(g, int) or g < 1:
        raise InvalidGenus(f"genus must be an integer >= 1, got {g!r}")


class FamilyInstance(namedtuple(
        "FamilyInstance", "genus j k cover certificate")):
    """A cover built by :func:`family_from`: j, k, the cover and the
    :class:`CompanionCertificate` of its lemma's hypotheses."""

    __slots__ = ()


class CompanionCertificate(namedtuple(
        "CompanionCertificate",
        "ok product_identity derivative_identity source_shape")):
    """Outcome of the hypotheses of :func:`family_from`'s lemma:
    ``product_identity`` is (x+1) k^2 = j^2 + x^(2g-1),
    ``derivative_identity`` is (2g-1) j - 2x j' = (2g-1) k, and
    ``source_shape`` says that the source is x (x+1) (x^(2g-1) + t j^2)."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def legendre_curve() -> HyperellipticCurve:
    """E_t : y^2 = x (x+1) (x+t) over Q[t], expanded."""
    x_x1 = Poly([0, 1, 1])
    return HyperellipticCurve(TPoly([x_x1.shift(1), x_x1]))


def _source_rhs(g: int, j_sq: Poly) -> TPoly:
    """x (x+1) (x^(2g-1) + t j^2) over Q[t], expanded from j^2 by shifts."""
    return TPoly([Poly([1, 1]).shift(2 * g), j_sq.shift(1) + j_sq.shift(2)])


def _certify(g: int, j: Poly, k: Poly, source_rhs):
    """The lemma's certificate for j, k and the source, and j^2: each
    hypothesis checked once, on j^2 and k^2 formed once."""
    n = 2 * g - 1
    j_sq, k_sq = j * j, k * k
    product = k_sq + k_sq.shift(1) == j_sq + Poly.monomial(1, n)
    derivative = n * j - 2 * j.derivative().shift(1) == n * k
    shape = source_rhs == _source_rhs(g, j_sq)
    return CompanionCertificate(product and derivative and shape,
                                product, derivative, shape), j_sq


def family_from(g: int, j: Poly, k: Poly, source_rhs) -> FamilyInstance:
    """The degree-(2g-1) cover of the Legendre curve by y^2 = source_rhs with
    map (x, y) -> (x^(2g-1)/j^2, x^(g-1) k / j^3 * y), and the certificate
    of the lemma's hypotheses from :func:`_certify`.

    Lemma.  Let X = x^(2g-1) and suppose (x+1) k^2 = j^2 + X.
    (i) If the source is x (x+1) (X + t j^2), the cover identity holds:
    cleared of j^6 it reads x^(2g-2) k^2 source = X (X + j^2) (X + t j^2).
    (ii) If also j(0) != 0, X/j^2 and x^(g-1) k/j^3 are in lowest terms.  A
    common root of j and k is a root of X = (x+1) k^2 - j^2, so it is 0,
    which j(0) != 0 rules out; and the only root of X and of x^(g-1) is 0.
    So j is coprime to X, to x^(g-1) and to k; if (ii)'s hypotheses fail,
    the fractions are reduced by a gcd.

    The certificate also holds the derivative identity, by which the
    pullback of dx/y is (2g-1) x^(g-1) dx/y; it is ``ok`` when all hold.
    """
    n = 2 * g - 1
    certificate, j_sq = _certify(g, j, k, source_rhs)
    coprime = certificate.product_identity and j.coefficient(0)
    fraction = RatFunc.coprime if coprime else RatFunc
    cover = Cover(
        source=HyperellipticCurve(source_rhs),
        target=legendre_curve(),
        map=CoverMap(f1=fraction(Poly.monomial(1, n), j_sq),
                     f2=fraction(k.shift(g - 1), j_sq * j)),
        degree=n,
    )
    return FamilyInstance(g, j, k, cover, certificate)


def recognise(cover: Cover):
    """The certificate of :func:`family_from`'s lemma for a cover read from
    a document, or None when the cover is not the family's shape.

    With f1 = a/b and f2 = num/den as stored, N = deg a must be odd, and
    g = (N+1)/2.  k is num without its first g-1 coefficients, which must
    be 0, and j is read off k by the derivative identity
    (2g-1) j - 2x j' = (2g-1) k: [x^m] j = N [x^m] k / (N - 2m), the only j
    that satisfies it, as N is odd.  The cover is recognised when the
    target is the Legendre curve, j(0) != 0, a = x^N, b = j^2 and
    den = j b exactly, and the product identity, the derivative identity
    and the source shape all hold.  These are the covers that reading j as
    the exact quotient den/b would recognise, but no polynomial is divided:
    dividing by a b that the parser admits, of degree 340 with a 4000-bit
    leading coefficient, took 92 s on one x86-64 core.

    Proof that a recognised cover satisfies the cover identity.  The checks
    give a = X, b = j^2, den = j^3 and num = x^(g-1) k, so the document's
    map is (X/j^2, x^(g-1) k/j^3), and its source is x (x+1) (X + t j^2).
    Lemma (i) says that the product identity then gives the cover identity
    for that map.  (i) needs no lowest terms, so no fraction is built.
    By the derivative identity the pullback of dx/y is N x^(g-1) dx/y, and
    since j(0) != 0 the ramification index at the origin is ord_0 f1 = N.
    """
    a, b = cover.map.f1.num, cover.map.f1.den
    num, den = cover.map.f2.num, cover.map.f2.den
    big_n = a.degree()
    if big_n < 1 or big_n % 2 == 0 or a != Poly.monomial(1, big_n):
        return None
    g = (big_n + 1) // 2
    if any(num.ints[:g - 1]) or cover.target != legendre_curve():
        return None
    k = Poly(num.ints[g - 1:]) * num.content
    j = Poly([big_n * c / (big_n - 2 * m) for m, c in enumerate(k.coeffs)])
    if not j.coefficient(0):
        return None
    certificate, j_sq = _certify(g, j, k, cover.source.rhs)
    if certificate and b == j_sq and den == j_sq * j:
        return certificate
    return None


def family_instance(g: int) -> FamilyInstance:
    """The genus-g family cover, with the certificate ``family_from`` gives."""
    j = j_poly(g)
    return family_from(g, j, k_poly(g), _source_rhs(g, j * j))


def is_family_instance(inst: FamilyInstance, g: int) -> bool:
    """Whether an instance built by :func:`family_from` is the genus-g family,
    decided without building the family's map.

    Every field of a ``family_from`` instance is a function of its four
    arguments, stored as the genus, j, k and the source, and its
    certificate's ``source_shape`` says whether the source is the one
    :func:`family_instance` builds from j.  So for such an instance this is
    equivalent to ``inst == family_instance(g)``.
    """
    return (inst.genus == g and inst.j == j_poly(g) and inst.k == k_poly(g)
            and inst.certificate.source_shape)


def build_family(g: int) -> FamilyInstance:
    """Construct and certify the genus-g family cover."""
    inst = family_instance(g)
    if not verify_cover_identity(inst.cover):
        raise PipelineError(f"family cover identity failed at genus {g}")
    ramification_report(inst.cover)
    return inst
