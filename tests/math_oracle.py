"""Constructions that no command runs, kept as tests of the mathematics.

- The commutative square behind the degenerate cover: the normalizations of
  the degenerate source and of the nodal cubic, the cover of nodal curves
  that closes the square, and the check that it commutes.
- The squarefree part of a polynomial, by one gcd with its derivative.
- The reader of the origami diagram text, the inverse of
  ``origami.format_diagram``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from origami_covers.curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    verify_cover_identity,
)
from origami_covers.degeneration import (
    _check_genus,
    _map_polys,
    degenerate_source_rhs,
    two_branch_map,
)
from origami_covers.errors import InvalidInput, ParseError, PipelineError
from origami_covers.origami import OrigamiDiagram, Permutation
from origami_covers.poly import Poly, poly_gcd
from origami_covers.ratfunc import RatFunc

# -- the degenerate square -------------------------------------------------


class ParametrizedCurve(NamedTuple):
    """A normalization map u -> (x(u), y(u)) from the line to a nodal curve."""

    x_of_u: Poly
    y_of_u: Poly

    def satisfies(self, rhs: Poly) -> bool:
        """Check y(u)^2 = rhs(x(u)) as a polynomial identity."""
        return self.y_of_u * self.y_of_u == rhs.compose(self.x_of_u)


def nodal_cubic_rhs() -> Poly:
    return Poly([0, 0, 1, 1])  # x^3 + x^2


def normalize_nodal_cubic() -> ParametrizedCurve:
    """u -> (u^2 - 1, u^3 - u), the normalization of y^2 = x^3 + x^2."""
    u = Poly.variable()
    curve = ParametrizedCurve(x_of_u=u * u - 1, y_of_u=u**3 - u)
    if not curve.satisfies(nodal_cubic_rhs()):
        raise PipelineError("nodal cubic normalization failed its identity")
    return curve


def normalize_degenerate_source(g: int) -> ParametrizedCurve:
    """u -> (u^2 - 1, u (u^2 - 1)^g), normalizing y^2 = x^(2g)(x+1)."""
    _check_genus(g)
    u = Poly.variable()
    curve = ParametrizedCurve(x_of_u=u * u - 1, y_of_u=u * (u * u - 1) ** g)
    if not curve.satisfies(degenerate_source_rhs(g)):
        raise PipelineError("degenerate source normalization failed its identity")
    return curve


def degenerate_cover(g: int) -> Cover:
    """The cover y^2 = x^(2g)(x+1) -> y^2 = x^3 + x^2 closing the square."""
    _check_genus(g)
    a, b = _map_polys(g)
    x = Poly.variable()
    x_plus_1 = Poly([1, 1])
    # w = z*A/B with z^2 = x+1; the target point is (w^2 - 1, w^3 - w).
    f1_num = x_plus_1 * a * a - b * b
    f1 = RatFunc(f1_num, b * b)
    f2 = RatFunc(a * f1_num, x**g * b**3)
    cover = Cover(
        source=HyperellipticCurve(degenerate_source_rhs(g)),
        target=HyperellipticCurve(nodal_cubic_rhs()),
        map=CoverMap(f1=f1, f2=f2),
        degree=2 * g - 1,
    )
    if not verify_cover_identity(cover):
        raise PipelineError(f"degenerate cover identity failed at genus {g}")
    return cover


def pipeline_closure(g: int) -> bool:
    """Check the commutative square behind :func:`degenerate_cover`.

    Composing the nodal-cubic normalization with the two-branch map must
    agree with composing the degenerate cover with the source normalization,
    coordinate by coordinate.  With w = N/D, f1 = a/b, f2 = n/d and the
    source normalization (x(u), y(u)), that is two cleared identities in u:
    a(x(u)) D^2 = (N^2 - D^2) b(x(u)) and
    n(x(u)) y(u) D^3 = (N^3 - N D^2) d(x(u)).
    """
    _check_genus(g)
    source_norm = normalize_degenerate_source(g)
    x_of_u, y_of_u = source_norm.x_of_u, source_norm.y_of_u
    normalize_nodal_cubic()
    tbm = two_branch_map(2 * g - 1)
    big_n, big_d = tbm.num, tbm.den
    cover_map = degenerate_cover(g).map
    f1, f2 = cover_map.f1, cover_map.f2
    d_sq = big_d * big_d
    w_sq_minus_1 = big_n * big_n - d_sq  # (w^2 - 1) D^2
    return (f1.num.compose(x_of_u) * d_sq
            == w_sq_minus_1 * f1.den.compose(x_of_u)
            and f2.num.compose(x_of_u) * y_of_u * d_sq * big_d
            == w_sq_minus_1 * big_n * f2.den.compose(x_of_u))


# -- squarefree part -------------------------------------------------------


def squarefree_part(a: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of ``a``."""
    if not a:
        raise InvalidInput("squarefree part of the zero polynomial is undefined")
    d = a.derivative()
    if not d:
        # Constant polynomial.
        return Poly.constant(1)
    return a.exact_div(poly_gcd(a, d)).monic()


# -- origami diagram text --------------------------------------------------

_CYCLES_RE = re.compile(r"^(\(\s*\d+(?:\s+\d+)*\s*\)|\(\s*\))*$")


def _parse_cycles(text: str, n: int) -> Permutation:
    text = text.strip()
    if not _CYCLES_RE.match(text):
        raise ParseError(f"bad cycle notation: {text!r}")
    cycles = [
        tuple(int(v) for v in body.split())
        for body in re.findall(r"\(([^)]*)\)", text)
        if body.strip()
    ]
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise ParseError(f"repeated entry in cycle {cycle}")
    try:
        return Permutation.from_cycles(n, cycles)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_diagram(text: str) -> OrigamiDiagram:
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) != 3:
        raise ParseError("expected 'n; right=...; up=...'")
    try:
        n = int(parts[0])
    except ValueError as exc:
        raise ParseError(f"bad square count {parts[0]!r}") from exc
    perms = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("right", "up") or key in perms:
            raise ParseError(f"unexpected section {key!r}")
        perms[key] = _parse_cycles(value, n)
    if set(perms) != {"right", "up"}:
        raise ParseError("diagram needs both right= and up= sections")
    return OrigamiDiagram(n=n, right=perms["right"], up=perms["up"])
