"""Hyperelliptic curves y^2 = p(x), covers (x,y) -> (f1(x), f2(x)*y), and the
certification of their ramification via the pulled-back invariant differential.

A curve's right-hand side is a :class:`~origami_covers.poly.Poly` over Q or a
:class:`~origami_covers.poly.TPoly` over Q[t]; the cover maps themselves
always have rational coefficients, matching the parameter-independence of
the family.  Identities over Q[t] are checked one power of t at a time.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

from .errors import InvalidCover, InvalidCurve, ParseError, UnsupportedShape
from .parsing import (
    MAX_PARSE_DEGREE,
    format_poly,
    format_ratfunc,
    parse_poly,
    parse_ratfunc,
)
from .poly import Poly, poly_gcd
from .ratfunc import RatFunc


class HyperellipticCurve(namedtuple("HyperellipticCurve", "rhs")):
    """The affine curve y^2 = rhs(x)."""

    __slots__ = ()

    def __new__(cls, rhs: Poly):
        if not rhs:
            raise InvalidCurve("curve right-hand side must be nonzero")
        return super().__new__(cls, rhs)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so that ``_replace`` validates too."""
        return cls(*fields)

    def is_over_q(self) -> bool:
        return len(self.rhs.parts) <= 1


class CoverMap(namedtuple("CoverMap", "f1 f2")):
    """The map (x, y) -> (f1(x), f2(x)*y)."""

    __slots__ = ()


class Cover(namedtuple("Cover", "source target map degree")):
    """A cover of the curve ``target`` by the curve ``source`` along ``map``,
    of the declared ``degree``."""

    __slots__ = ()


class CoverCertificate(namedtuple("CoverCertificate", "ok witness")):
    """Result of the formal cover-identity check; ``witness`` names the first
    differing coefficient, and is empty when the identity holds."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


class RamificationReport(namedtuple(
        "RamificationReport",
        "branch_point_x ramification_index pullback_coefficient"
        " vanishing_order_at_origin riemann_hurwitz_balanced")):
    """The certified ramification at the origin: the branch point's x, the
    ramification index there, the coefficient of dx/y in the pulled-back
    differential, its vanishing order at the origin, and whether
    Riemann-Hurwitz balances with that single branch point."""

    __slots__ = ()


def genus_arithmetic(curve: HyperellipticCurve) -> int:
    """Genus determined by the degree of the Weierstrass right-hand side."""
    deg = curve.rhs.degree()
    if deg < 3:
        raise InvalidCurve(f"degree {deg} < 3")
    return (int(deg) - 1) // 2


def genus_geometric(curve: HyperellipticCurve) -> int:
    """Genus of the smooth model: replace rhs by its odd part.

    Squared factors come out of y, so the smooth model is y^2 = h with h the
    product of the factors of odd multiplicity.  Along the chain a_0 = rhs,
    a_(k+1) = gcd(a_k, a_k'), deg a_k - deg a_(k+1) counts the distinct
    factors of multiplicity > k, so the alternating sum of those differences
    is deg h.
    """
    if not curve.is_over_q():
        raise InvalidCurve("geometric genus requires a curve over Q")
    a = curve.rhs.parts[0]
    deg, sign = 0, 1
    while a.degree() > 0:
        nxt = poly_gcd(a, a.derivative())
        deg += sign * int(a.degree() - nxt.degree())
        a, sign = nxt, -sign
    return max(deg - 1, 0) // 2


def specialize_t(curve: HyperellipticCurve, value) -> HyperellipticCurve:
    """Substitute t := value, by Horner's rule over the t-parts."""
    rhs = Poly()
    for part in reversed(curve.rhs.parts):
        rhs = rhs * value + part
    return HyperellipticCurve(rhs)


def verify_cover_identity(cover: Cover) -> CoverCertificate:
    """Check f2(x)^2 * p(x) = q(f1(x)) as a formal identity over Q[t].

    p is the source right-hand side and q the target right-hand side.  With
    f1 = a/b, f2 = n/d and m = deg q, clearing denominators gives
    p n^2 b^m = d^2 sum_i q_i a^i b^(m-i); both sides are compared one power
    of t at a time, with each a^i b^(m-i) computed once for all of them.
    """
    p = cover.source.rhs
    q = cover.target.rhs
    a, b = cover.map.f1.num, cover.map.f1.den
    n, d = cover.map.f2.num, cover.map.f2.den
    m = int(q.degree())
    # q(f1) with f1 = a/b has denominator b^m after clearing.
    terms = {i: a**i * b ** (m - i) for i in range(m + 1)
             if any(part.coefficient(i) for part in q.parts)}
    cleared, d_sq = n * n * b**m, d * d
    zero = Poly()
    parts = zip_longest(p.parts, q.parts, fillvalue=zero)
    for k, (p_k, q_k) in enumerate(parts):
        q_of_f1 = sum((c * terms[i] for i, c in enumerate(q_k.coeffs) if c),
                      zero)
        diff = p_k * cleared - q_of_f1 * d_sq
        if diff:
            witness = f"coefficient of t^{k}*x^{diff.degree()} differs"
            return CoverCertificate(ok=False, witness=witness)
    return CoverCertificate(ok=True, witness="")


def pullback_invariant_differential(cover: Cover) -> RatFunc:
    """Coefficient lambda(x) of dx/y in the pullback of dx/y on the target.

    With y_target = f2(x) * y_source this is f1'(x) / f2(x), reduced.  For
    f1 = a/b and f2 = n/d that is top/bottom with top = (a'b - ab')d and
    bottom = b^2 n.  When bottom divides top, as it does for the family,
    the quotient is the reduced value and no gcd is taken.
    """
    f1, f2 = cover.map.f1, cover.map.f2
    if not f2:
        raise InvalidCover("second map component is zero")
    a, b = f1.num, f1.den
    top = (a.derivative() * b - a * b.derivative()) * f2.den
    bottom = b * b * f2.num
    quotient, remainder = divmod(top, bottom)
    return RatFunc(top, bottom) if remainder else RatFunc(quotient)


def ramification_report(cover: Cover) -> RamificationReport:
    """Certify the family's ramification shape at the origin.

    Requires the pullback coefficient to be a pure monomial c*x^m; that shape
    means the pulled-back differential vanishes only above x = 0, so a single
    branch point accounts for the whole Riemann-Hurwitz budget.
    """
    lam = pullback_invariant_differential(cover)
    if not lam.is_poly():
        raise UnsupportedShape("pullback coefficient is not a polynomial")
    lam_poly = lam.as_poly()
    nonzero = [e for e, c in enumerate(lam_poly.coeffs) if c]
    if len(nonzero) != 1:
        raise UnsupportedShape("pullback coefficient is not a monomial")
    m = nonzero[0]
    f1 = cover.map.f1
    if not f1.den.coefficient(0):
        raise UnsupportedShape("map denominator vanishes at the origin")
    index = next(e for e, c in enumerate(f1.num.coeffs) if c)
    if index < 1:
        raise UnsupportedShape("first map component does not vanish at the origin")
    return RamificationReport(
        branch_point_x=Fraction(0),
        ramification_index=index,
        pullback_coefficient=lam,
        vanishing_order_at_origin=2 * m,
        riemann_hurwitz_balanced=riemann_hurwitz_balanced(cover, index),
    )


def riemann_hurwitz_balanced(cover: Cover, index: int) -> bool:
    """Whether Riemann-Hurwitz balances for the cover's declared degree with
    a single branch point, of ramification index ``index``."""
    g_source = genus_arithmetic(cover.source)
    g_target = genus_arithmetic(cover.target)
    return (2 * g_source - 2
            == cover.degree * (2 * g_target - 2) + (index - 1))


# -- JSON interchange ------------------------------------------------------


def cover_to_dict(cover: Cover) -> dict:
    return {
        "source_rhs": format_poly(cover.source.rhs),
        "target_rhs": format_poly(cover.target.rhs),
        "f1": format_ratfunc(cover.map.f1),
        "f2": format_ratfunc(cover.map.f2),
        "degree": cover.degree,
    }


def cover_from_dict(doc: dict) -> Cover:
    required = ["source_rhs", "target_rhs", "f1", "f2", "degree"]
    for key in required:
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    def _field(key, parse):
        try:
            if not isinstance(doc[key], str):
                raise ParseError("must be a string")
            return parse(doc[key])
        except ParseError as exc:
            raise ParseError(f"field {key!r}: {exc}") from exc
    degree = doc["degree"]
    if type(degree) is not int or degree < 1:   # bool is not a degree
        raise ParseError("field 'degree': must be a positive integer")
    source = HyperellipticCurve(_field("source_rhs", parse_poly))
    target = HyperellipticCurve(_field("target_rhs", parse_poly))
    f1 = _field("f1", parse_ratfunc)
    # The cleared identity q(f1) has degree deg(q) * deg(f1); bound it before
    # verify_cover_identity expands it.  Generated documents reach 3 * 127.
    identity_degree = target.rhs.degree() * max(f1.num.degree(),
                                                 f1.den.degree())
    if identity_degree > 2 * MAX_PARSE_DEGREE:
        raise ParseError(
            f"fields 'target_rhs' and 'f1': identity degree {identity_degree}"
            f" exceeds the limit {2 * MAX_PARSE_DEGREE}"
        )
    return Cover(
        source=source,
        target=target,
        map=CoverMap(f1=f1, f2=_field("f2", parse_ratfunc)),
        degree=degree,
    )


def cover_from_json(text: str) -> Cover:
    """Read a cover document: the cover's fields, either at the top level or
    under ``"cover"`` as in a ``generate`` document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # CPython's digit limit; RecursionError, deeply nested arrays.
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("cover document must be a JSON object")
    doc = doc.get("cover", doc)
    if not isinstance(doc, dict):
        raise ParseError("field 'cover': must be a JSON object")
    return cover_from_dict(doc)
