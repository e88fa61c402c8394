"""The genus-g family of totally ramified covers of the Legendre curves.

For each genus g >= 1 this builds the source curve

    C_t : y^2 = x (x+1) (x^(2g-1) + t j(x)^2)

with its degree-(2g-1) map (x, y) -> (x^(2g-1)/j^2, x^(g-1) k / j^3 * y) to
the Legendre curve E_t : y^2 = x (x+1) (x+t), where j and k are the even and
odd binomial companion polynomials of degree g-1.
"""

from __future__ import annotations

from typing import NamedTuple

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
    """Sum of binomial(2g-1, 2i) * (x+1)^i for i = 0..g-1, expanded by
    Horner's rule in x+1."""
    _check_genus(g)
    return Poly([binomial(2 * g - 1, 2 * i)
                 for i in range(g)]).compose(Poly([1, 1]))


def k_poly(g: int) -> Poly:
    """Sum of binomial(2g-1, 2i+1) * (x+1)^i for i = 0..g-1, expanded by
    Horner's rule in x+1."""
    _check_genus(g)
    return Poly([binomial(2 * g - 1, 2 * i + 1)
                 for i in range(g)]).compose(Poly([1, 1]))


def _check_genus(g: int):
    if not isinstance(g, int) or g < 1:
        raise InvalidGenus(f"genus must be an integer >= 1, got {g!r}")


class FamilyInstance(NamedTuple):
    genus: int
    j: Poly
    k: Poly
    cover: Cover


class CompanionCertificate(NamedTuple):
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


def _source_rhs(g: int, j: Poly) -> TPoly:
    """x (x+1) (x^(2g-1) + t j^2) over Q[t], expanded."""
    x = Poly.variable()
    x_x1 = x * (x + 1)
    return TPoly([x_x1 * x ** (2 * g - 1), x_x1 * j * j])


def family_source_curve(g: int) -> HyperellipticCurve:
    """C_t : y^2 = x (x+1) (x^(2g-1) + t j(x)^2) over Q[t], expanded."""
    _check_genus(g)
    return HyperellipticCurve(_source_rhs(g, j_poly(g)))


def family_from(g: int, j: Poly, k: Poly, source_rhs) -> FamilyInstance:
    """The degree-(2g-1) cover of the Legendre curve by y^2 = source_rhs with
    map (x, y) -> (x^(2g-1)/j^2, x^(g-1) k / j^3 * y), not certified."""
    x = Poly.variable()
    f1 = RatFunc(x ** (2 * g - 1), j * j)
    f2 = RatFunc(x ** (g - 1) * k, j * j * j)
    cover = Cover(
        source=HyperellipticCurve(source_rhs),
        target=legendre_curve(),
        map=CoverMap(f1=f1, f2=f2),
        degree=2 * g - 1,
    )
    return FamilyInstance(genus=g, j=j, k=k, cover=cover)


def family_instance(g: int) -> FamilyInstance:
    """The genus-g family cover, constructed but not certified."""
    _check_genus(g)
    return family_from(g, j_poly(g), k_poly(g), family_source_curve(g).rhs)


def is_family_instance(inst: FamilyInstance, g: int) -> bool:
    """Whether an instance built by :func:`family_from` is the genus-g family,
    decided without building the family's map.

    :func:`family_instance` is ``family_from`` applied to (g, j_poly(g),
    k_poly(g), family_source_curve(g).rhs), and every field of a
    ``family_from`` instance is a function of its four arguments, which it
    stores as the genus, j, k and the source.  So for such an instance this
    is equivalent to ``inst == family_instance(g)``.  The expected source is
    built from the j just compared, so j is built once.
    """
    j = j_poly(g)
    return (inst.genus == g and inst.j == j and inst.k == k_poly(g)
            and inst.cover.source.rhs == _source_rhs(g, j))


def build_family(g: int) -> FamilyInstance:
    """Construct and certify the genus-g family cover."""
    inst = family_instance(g)
    if not verify_cover_identity(inst.cover):
        raise PipelineError(f"family cover identity failed at genus {g}")
    ramification_report(inst.cover)
    return inst
