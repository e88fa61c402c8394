"""Rediscovery pipeline: degenerate covers of the nodal cubic and the
first-order deformation that recovers the smooth family.

The route: normalize the degenerate source y^2 = x^(2g)(x+1) and the nodal
cubic y^2 = x^3 + x^2 to projective lines, connect them by the unique (up to
conjugation) degree-(2g-1) map of the line with exactly two branch points,
and close the square to a cover of nodal curves.  Perturbing the curve and
map coefficients at first order in t and solving the resulting linear system
then produces the smooth family, whose validity is re-certified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    verify_cover_identity,
)
from .errors import (
    DeformationFailed,
    FirstOrderOnly,
    InvalidDegree,
    InvalidGenus,
    PipelineError,
)
from .family import FamilyInstance, legendre_curve
from .linalg import LinearSystem, solve_exact
from .poly import Poly, TPoly, binomial
from .ratfunc import RatFunc

UVAR = "u"
ZVAR = "z"


@dataclass(frozen=True)
class ParametrizedCurve:
    """A normalization map u -> (x(u), y(u)) from the line to a nodal curve."""

    x_of_u: Poly
    y_of_u: Poly

    def satisfies(self, rhs: Poly) -> bool:
        """Check y(u)^2 = rhs(x(u)) as a polynomial identity."""
        return self.y_of_u * self.y_of_u == rhs.compose(self.x_of_u)


def nodal_cubic_rhs() -> Poly:
    return Poly([0, 0, 1, 1])  # x^3 + x^2


def degenerate_source_rhs(g: int) -> Poly:
    """x^(2g)(x+1), the right-hand side of the genus-0 degenerate source."""
    return Poly.variable() ** (2 * g) * Poly([1, 1])


def normalize_nodal_cubic() -> ParametrizedCurve:
    """u -> (u^2 - 1, u^3 - u), the normalization of y^2 = x^3 + x^2."""
    u = Poly.variable(UVAR)
    curve = ParametrizedCurve(x_of_u=u * u - 1, y_of_u=u**3 - u)
    if not curve.satisfies(nodal_cubic_rhs()):
        raise PipelineError("nodal cubic normalization failed its identity")
    return curve


def normalize_degenerate_source(g: int) -> ParametrizedCurve:
    """u -> (u^2 - 1, u (u^2 - 1)^g), normalizing y^2 = x^(2g)(x+1)."""
    _check_genus(g)
    u = Poly.variable(UVAR)
    curve = ParametrizedCurve(x_of_u=u * u - 1, y_of_u=u * (u * u - 1) ** g)
    if not curve.satisfies(degenerate_source_rhs(g)):
        raise PipelineError("degenerate source normalization failed its identity")
    return curve


def _check_genus(g: int):
    if not isinstance(g, int) or g < 2:
        raise InvalidGenus(f"genus must be an integer >= 2, got {g!r}")


def two_branch_map(n: int) -> RatFunc:
    """The degree-n self-map of the line fixing +-1 and branched only there.

    Conjugating z -> z^n by the involution z -> (1+z)/(1-z) gives
    ((1+z)^n - (1-z)^n) / ((1+z)^n + (1-z)^n).  By the binomial theorem the
    two sides are twice the odd and twice the even part of (1+z)^n, so the
    map is sum_(k odd) C(n,k) z^k / sum_(k even) C(n,k) z^k.
    """
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise InvalidDegree(f"degree must be an odd positive integer, got {n!r}")
    coeffs = [binomial(n, k) for k in range(n + 1)]
    odd = Poly([c if k % 2 else 0 for k, c in enumerate(coeffs)], var=ZVAR)
    even = Poly([0 if k % 2 else c for k, c in enumerate(coeffs)], var=ZVAR)
    return RatFunc(odd, even)


def _map_polys(g: int):
    """Even/odd split of the two-branch map, pushed down to the x-line.

    On the degenerate source, z = y/x^g satisfies z^2 = x + 1, so the
    odd numerator z*N1(z^2) and even denominator D1(z^2) of the two-branch
    map become A(x) = N1(x+1) and B(x) = D1(x+1).
    """
    tbm = two_branch_map(2 * g - 1)
    num, den = tbm.num, tbm.den
    if any(c for c in num.coeffs[0::2]) or any(c for c in den.coeffs[1::2]):
        raise PipelineError("two-branch map lost its odd/even symmetry")
    x_plus_1 = Poly([1, 1])
    a = Poly([])
    for i, c in enumerate(num.coeffs[1::2]):
        a = a + c * x_plus_1**i
    b = Poly([])
    for i, c in enumerate(den.coeffs[0::2]):
        b = b + c * x_plus_1**i
    return a, b


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
    u = Poly.variable(UVAR)
    big_n, big_d = tbm.num.compose(u), tbm.den.compose(u)
    cover_map = degenerate_cover(g).map
    f1, f2 = cover_map.f1, cover_map.f2
    d_sq = big_d * big_d
    w_sq_minus_1 = big_n * big_n - d_sq  # (w^2 - 1) D^2
    return (f1.num.compose(x_of_u) * d_sq
            == w_sq_minus_1 * f1.den.compose(x_of_u)
            and f2.num.compose(x_of_u) * y_of_u * d_sq * big_d
            == w_sq_minus_1 * big_n * f2.den.compose(x_of_u))


# -- first-order deformation ----------------------------------------------


@dataclass(frozen=True)
class DeformationAnsatz:
    """Unknown layout for the first-order perturbation at a given genus.

    Curve unknowns multiply t*x^i for every source coefficient below the two
    leading ones; map unknowns perturb each denominator coefficient and each
    non-leading numerator coefficient of the degenerate map at order t.
    """

    genus: int
    curve_unknowns: tuple
    den_unknowns: tuple
    num_unknowns: tuple

    @property
    def unknowns(self) -> tuple:
        return self.curve_unknowns + self.den_unknowns + self.num_unknowns

    @property
    def map_unknowns(self) -> tuple:
        return self.den_unknowns + self.num_unknowns


def deformation_ansatz(g: int) -> DeformationAnsatz:
    _check_genus(g)
    if g == 2:
        # The classical letters of the degree-3 computation.
        return DeformationAnsatz(2, ("a", "b", "c", "d"), ("e", "f"), ("g",))
    return DeformationAnsatz(
        genus=g,
        curve_unknowns=tuple(f"a{i}" for i in range(1, 2 * g + 1)),
        den_unknowns=tuple(f"e{i}" for i in range(g - 1, -1, -1)),
        num_unknowns=tuple(f"n{i}" for i in range(g - 2, -1, -1)),
    )


def _perturbed_source(g: int, values: dict) -> TPoly:
    """The source x^(2g+1) + (1 + a_1 t) x^(2g) + a_2 t x^(2g-1) + ... +
    a_2g t x over Q[t], for a numeric assignment of the curve unknowns."""
    names = deformation_ansatz(g).curve_unknowns
    return TPoly([degenerate_source_rhs(g),
                  Poly([0] + [values[name] for name in reversed(names)])])


def assemble_deformation_system(g: int, maps=None) -> LinearSystem:
    """Equate each t*x^i coefficient of the perturbed identity to zero.

    The cleared identity is x^(2g-2) N^2 S = X (X + D^2) (X + t D^2) with
    X = x^(2g-1), S0 = x^(2g+1) + x^(2g), source S = S0 + t sum a_i
    x^(2g+1-i), numerator factor N = A + t sum n_d x^d and denominator
    D = B + t sum e_d x^d, where A, B come from :func:`_map_polys` (or
    ``maps``, when the caller has them).  Its t^1 coefficient is affine in
    the unknowns, so the system is written down in closed form: the column
    of a_i is x^(2g-2) A^2 shifted by 2g+1-i, that of e_d is -2 X^2 B shifted
    by d, that of n_d is 2 x^(2g-2) A S0 shifted by d, and the right-hand
    side is X (X + B^2) B^2.
    """
    _check_genus(g)
    a, b = maps or _map_polys(g)
    x = Poly.variable()
    big_x = x ** (2 * g - 1)
    lead = x ** (2 * g - 2)
    source = degenerate_source_rhs(g)
    lead_a_sq, b_sq = lead * a * a, b * b
    if lead_a_sq * source != big_x * big_x * (big_x + b_sq):
        raise PipelineError(
            f"degenerate cover identity broke at order t^0 at genus {g}"
        )
    # (base, shift) per column, in deformation_ansatz order: a_1..a_2g,
    # e_(g-1)..e_0, n_(g-2)..n_0.
    columns = [(lead_a_sq, s) for s in range(2 * g, 0, -1)]
    columns += [(-2 * big_x * big_x * b, d) for d in range(g - 1, -1, -1)]
    columns += [(2 * lead * a * source, d) for d in range(g - 2, -1, -1)]
    rhs = big_x * (big_x + b_sq) * b_sq
    n_rows = max(int(p.degree()) + s for p, s in columns + [(rhs, 0)]) + 1
    matrix = [[p.coefficient(i - s) for p, s in columns]
              for i in range(n_rows)]
    return LinearSystem(matrix, [rhs.coefficient(i) for i in range(n_rows)])


@dataclass(frozen=True)
class DeformationReport:
    genus: int
    ansatz: DeformationAnsatz
    rows: int
    cols: int
    solution: dict
    nullity: int
    instance: FamilyInstance | None  # the deformed cover, None if not exact

    @property
    def exact(self) -> bool:
        return self.instance is not None


def solve_deformation(g: int, maps=None):
    """Solve the order-t system; returns (ansatz, system, LinearSolution).

    The representative with every map perturbation equal to zero is the one
    wanted, when the system allows it: the map of the smooth family is
    expected to coincide with the degenerate map.  One solve finds it.
    :func:`solve_exact` sets free unknowns to zero and picks pivots left to
    right, and the curve columns come first and are independent (shifts of
    one nonzero polynomial), so each becomes a pivot; when the curve columns
    alone reach the right-hand side, the solution with every free unknown at
    zero has every map unknown at zero too.
    """
    ansatz = deformation_ansatz(g)
    system = assemble_deformation_system(g, maps)
    return ansatz, system, solve_exact(system)


def deform(g: int, solution: dict | None = None, maps=None) -> FamilyInstance:
    """Globalize the first-order solution and certify it exactly.

    The candidate curve takes the solved coefficients; the map is kept at its
    unperturbed (t = 0) value.  Exactness is certified by the full symbolic
    cover identity, not just at order t.
    """
    _check_genus(g)
    maps = maps or _map_polys(g)
    if solution is None:
        ansatz, _, outcome = solve_deformation(g, maps)
        if not outcome.consistent:
            raise DeformationFailed(f"order-t system inconsistent at genus {g}")
        solution = dict(zip(ansatz.unknowns, outcome.solution))
    a_poly, b_poly = maps
    x = Poly.variable()
    f1 = RatFunc(x ** (2 * g - 1), b_poly * b_poly)
    f2 = RatFunc(x ** (g - 1) * a_poly, b_poly**3)
    cover = Cover(
        source=HyperellipticCurve(_perturbed_source(g, solution)),
        target=legendre_curve(),
        map=CoverMap(f1=f1, f2=f2),
        degree=2 * g - 1,
    )
    if not verify_cover_identity(cover):
        raise FirstOrderOnly(
            f"first-order deformation did not globalize at genus {g}"
        )
    return FamilyInstance(genus=g, j=b_poly, k=a_poly, cover=cover)


def deformation_report(g: int) -> DeformationReport:
    """Full pipeline summary for machine-readable output."""
    _check_genus(g)
    maps = _map_polys(g)
    ansatz, system, outcome = solve_deformation(g, maps)
    if not outcome.consistent:
        raise DeformationFailed(f"order-t system inconsistent at genus {g}")
    solution = dict(zip(ansatz.unknowns, outcome.solution))
    try:
        instance = deform(g, solution=solution, maps=maps)
    except FirstOrderOnly:
        instance = None
    return DeformationReport(
        genus=g,
        ansatz=ansatz,
        rows=system.rows,
        cols=system.cols,
        solution=solution,
        nullity=outcome.nullity,
        instance=instance,
    )
