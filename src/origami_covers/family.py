"""The genus-g family of totally ramified covers of the Legendre curves.

For each genus g >= 1 this builds the source curve

    C_t : y^2 = x (x+1) (x^(2g-1) + t j(x)^2)

with its degree-(2g-1) map (x, y) -> (x^(2g-1)/j^2, x^(g-1) k / j^3 * y) to
the Legendre curve E_t : y^2 = x (x+1) (x+t), where j and k are the even and
odd binomial companion polynomials of degree g-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    ramification_report,
    verify_cover_identity,
)
from .errors import InvalidGenus, PipelineError
from .poly import Poly, TPoly, binomial
from .ratfunc import RatFunc


def j_poly(g: int) -> Poly:
    """Sum of binomial(2g-1, 2i) * (x+1)^i for i = 0..g-1, expanded."""
    _check_genus(g)
    x_plus_1 = Poly([1, 1])
    acc = Poly([])
    for i in range(g):
        acc = acc + binomial(2 * g - 1, 2 * i) * x_plus_1**i
    return acc


def k_poly(g: int) -> Poly:
    """Sum of binomial(2g-1, 2i+1) * (x+1)^i for i = 0..g-1, expanded."""
    _check_genus(g)
    x_plus_1 = Poly([1, 1])
    acc = Poly([])
    for i in range(g):
        acc = acc + binomial(2 * g - 1, 2 * i + 1) * x_plus_1**i
    return acc


def _check_genus(g: int):
    if not isinstance(g, int) or g < 1:
        raise InvalidGenus(f"genus must be an integer >= 1, got {g!r}")


@dataclass(frozen=True)
class FamilyInstance:
    genus: int
    j: Poly
    k: Poly
    cover: Cover


@dataclass(frozen=True)
class CompanionCertificate:
    """Outcome of the two polynomial identities underpinning the cover."""

    ok: bool
    product_identity: bool   # (x+1) k^2 = j^2 + x^(2g-1)
    derivative_identity: bool  # (2g-1) j - 2x j' = (2g-1) k

    def __bool__(self):
        return self.ok


def companion_identities(g: int) -> CompanionCertificate:
    _check_genus(g)
    j = j_poly(g)
    k = k_poly(g)
    x = Poly.variable()
    prod_ok = (x + 1) * k * k == j * j + x ** (2 * g - 1)
    deriv_ok = (2 * g - 1) * j - 2 * x * j.derivative() == (2 * g - 1) * k
    return CompanionCertificate(
        ok=prod_ok and deriv_ok,
        product_identity=prod_ok,
        derivative_identity=deriv_ok,
    )


def legendre_curve() -> HyperellipticCurve:
    """E_t : y^2 = x (x+1) (x+t) over Q[t], expanded."""
    x = Poly.variable()
    x_x1 = x * (x + 1)
    return HyperellipticCurve(TPoly([x_x1 * x, x_x1]))


def family_source_curve(g: int) -> HyperellipticCurve:
    """C_t : y^2 = x (x+1) (x^(2g-1) + t j(x)^2) over Q[t], expanded."""
    _check_genus(g)
    j = j_poly(g)
    x = Poly.variable()
    x_x1 = x * (x + 1)
    return HyperellipticCurve(TPoly([x_x1 * x ** (2 * g - 1), x_x1 * j * j]))


def build_family(g: int) -> FamilyInstance:
    """Construct and certify the genus-g family cover."""
    _check_genus(g)
    j = j_poly(g)
    k = k_poly(g)
    x = Poly.variable()
    f1 = RatFunc(x ** (2 * g - 1), j * j)
    f2 = RatFunc(x ** (g - 1) * k, j * j * j)
    cover = Cover(
        source=family_source_curve(g),
        target=legendre_curve(),
        map=CoverMap(f1=f1, f2=f2),
        degree=2 * g - 1,
    )
    if not verify_cover_identity(cover):
        raise PipelineError(f"family cover identity failed at genus {g}")
    ramification_report(cover)
    return FamilyInstance(genus=g, j=j, k=k, cover=cover)
