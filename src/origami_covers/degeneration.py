"""Rediscovery pipeline: the first-order deformation of a degenerate cover
of the nodal cubic that recovers the smooth family.

The degenerate source y^2 = x^(2g)(x+1) and the nodal cubic y^2 = x^3 + x^2
normalize to projective lines, which the unique (up to conjugation)
degree-(2g-1) map of the line with exactly two branch points connects;
pushed down to the x-line, that map gives the degenerate cover's maps (the
test suite's ``math_oracle`` closes and checks the square).  Perturbing the
curve and map coefficients at first order in t and solving the resulting
linear system then produces the smooth family, whose validity is
re-certified exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

# Not called here: the benchmark's tracer wraps this binding, and its tests
# require every binding it wraps to exist (ROADMAP item 6 drops that).
from .curves import verify_cover_identity  # noqa: F401
from .errors import FirstOrderOnly, InvalidDegree, InvalidGenus, PipelineError
from .family import FamilyInstance, family_from
from .poly import ZERO, Poly, TPoly, poly_gcd
from .ratfunc import RatFunc


def degenerate_source_rhs(g: int) -> Poly:
    """x^(2g)(x+1), the right-hand side of the genus-0 degenerate source."""
    return Poly([1, 1]).shift(2 * g)


def _check_genus(g: int):
    if not isinstance(g, int) or g < 2:
        raise InvalidGenus(f"genus must be an integer >= 2, got {g!r}")


def two_branch_map(n: int) -> RatFunc:
    """The degree-n self-map of the line fixing +-1 and branched only there.

    Conjugating z -> z^n by the involution z -> (1+z)/(1-z) gives
    ((1+z)^n - (1-z)^n) / ((1+z)^n + (1-z)^n).  By the binomial theorem the
    two sides are twice the odd and twice the even part of (1+z)^n, so the
    map is sum_(k odd) C(n,k) z^k / sum_(k even) C(n,k) z^k.

    That fraction is in lowest terms, so no gcd is taken: a common root of
    (1+z)^n - (1-z)^n and (1+z)^n + (1-z)^n would be a root of their sum
    2 (1+z)^n and of their difference 2 (1-z)^n, so it would be both -1
    and 1.
    """
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise InvalidDegree(f"degree must be an odd positive integer, got {n!r}")
    coeffs = [math.comb(n, k) for k in range(n + 1)]
    odd = Poly([c if k % 2 else 0 for k, c in enumerate(coeffs)])
    even = Poly([0 if k % 2 else c for k, c in enumerate(coeffs)])
    return RatFunc.coprime(odd, even)


def _at_x_plus_1(coeffs) -> list:
    """The integer coefficients of sum c_i (x+1)^i, for integers c_i.

    Each power of x+1 is a Pascal row, made from the one before by one list
    addition, and c_i times it is added into the lowest i+1 slots.
    """
    acc, row = [0] * len(coeffs), [1]
    for i, c in enumerate(coeffs):
        acc[:i + 1] = [a + c * r for a, r in zip(acc, row)]
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    return acc


def _map_polys(g: int):
    """Even/odd split of the two-branch map, pushed down to the x-line.

    On the degenerate source, z = y/x^g satisfies z^2 = x + 1, so the
    odd numerator z*N1(z^2) and even denominator D1(z^2) of the two-branch
    map become A(x) = N1(x+1) and B(x) = D1(x+1), substituted by Pascal
    rows of integers.
    """
    tbm = two_branch_map(2 * g - 1)
    num, den = tbm.num, tbm.den
    if any(num.ints[0::2]) or any(den.ints[1::2]):
        raise PipelineError("two-branch map lost its odd/even symmetry")
    return (num.content * Poly(_at_x_plus_1(num.ints[1::2])),
            den.content * Poly(_at_x_plus_1(den.ints[0::2])))


# -- first-order deformation ----------------------------------------------


class DeformationAnsatz(namedtuple(
        "DeformationAnsatz", "genus curve_unknowns den_unknowns num_unknowns")):
    """Unknown layout for the first-order perturbation at a given genus.

    Curve unknowns multiply t*x^i for every source coefficient below the two
    leading ones; map unknowns perturb each denominator coefficient and each
    non-leading numerator coefficient of the degenerate map at order t.
    """

    __slots__ = ()

    @property
    def unknowns(self) -> tuple:
        return self.curve_unknowns + self.den_unknowns + self.num_unknowns


def deformation_ansatz(g: int) -> DeformationAnsatz:
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


class DeformationSystem(namedtuple(
        "DeformationSystem", "genus maps columns rhs")):
    """The order-t linear system as polynomials: column j holds the
    coefficients of base * x^shift for (base, shift) = columns[j], in
    :func:`deformation_ansatz` order; ``maps`` is the (A, B) they come from.
    """

    __slots__ = ()

    @property
    def rows(self) -> int:
        return max(p.degree() + s
                   for p, s in self.columns + ((self.rhs, 0),) if p) + 1

    @property
    def cols(self) -> int:
        return len(self.columns)


def assemble_deformation_system(g: int, maps) -> DeformationSystem:
    """Equate each t*x^i coefficient of the perturbed identity to zero.

    The cleared identity is x^(2g-2) N^2 S = X (X + D^2) (X + t D^2) with
    X = x^(2g-1), S0 = x^(2g) (x+1), source S = S0 + t sum a_i
    x^(2g+1-i), numerator factor N = A + t sum n_d x^d and denominator
    D = B + t sum e_d x^d, where (A, B) are the ``maps`` from
    :func:`_map_polys`.  Its t^1 coefficient is affine in the unknowns, so
    the system is written down in closed form, by shifts and no product by
    a power of x or by x+1: the column of a_i is x^(2g-2) A^2 shifted by
    2g+1-i, those of e_d and n_d are -2 X^2 B = x^(4g-2) (-2B) and
    2 x^(2g-2) A S0 = x^(4g-2) 2 (A + x A) shifted by d, and the right-hand
    side is X (X + B^2) B^2.

    Its t^0 coefficient is checked with x^(4g-2) cancelled, which is exact
    as Q[x] has no zero divisors: A^2 (x+1) = X + B^2, the companion
    product identity (x+1) k^2 = j^2 + X with k = A and j = B.
    """
    a, b = maps
    a_sq, b_sq = a * a, b * b
    big_x_plus_b_sq = Poly.monomial(1, 2 * g - 1) + b_sq
    if a_sq + a_sq.shift(1) != big_x_plus_b_sq:
        raise PipelineError(
            f"degenerate cover identity broke at order t^0 at genus {g}"
        )
    lead_a_sq = a_sq.shift(2 * g - 2)
    den_base = (-2 * b).shift(4 * g - 2)
    num_base = (2 * (a + a.shift(1))).shift(4 * g - 2)
    rhs = (big_x_plus_b_sq * b_sq).shift(2 * g - 1)
    # a_1..a_2g, e_(g-1)..e_0, n_(g-2)..n_0.
    columns = tuple([(lead_a_sq, s) for s in range(2 * g, 0, -1)]
                    + [(den_base, d) for d in range(g - 1, -1, -1)]
                    + [(num_base, d) for d in range(g - 2, -1, -1)])
    return DeformationSystem(g, maps, columns, rhs)


def certify_nullity(system: DeformationSystem) -> int:
    """The dimension of the kernel of the order-t system, which is 1.

    Lemma.  Write a vector of unknowns as the polynomials U = sum a_i
    x^(2g+1-i), V = sum e_d x^d and W = sum n_d x^d, so deg U <= 2g with
    U(0) = 0, deg V <= g-1 and deg W <= g-2.  By the columns of
    :func:`assemble_deformation_system`, after dividing by x^(2g-2), it is in
    the kernel exactly when A^2 U = 2 x^(2g) (B V - A (x+1) W).  Suppose
    A(0) != 0.  Then x^(2g) divides U, so U = c x^(2g) for a constant c, and
    2 B V = A (c A + 2 (x+1) W).  Suppose A and B are coprime: then A
    divides V, and when deg A >= g-1 that makes V = v A for a constant v.
    Now c A = 2 (v B - (x+1) W); at x = -1 this reads c A(-1) = 2 v B(-1),
    so when B(-1) != 0 it fixes v = c A(-1) / (2 B(-1)), and then
    W = (v B - c A/2) / (x+1).  So c determines the vector, and the kernel
    has dimension at most 1.  The vector with c = 1 is nonzero; checking it
    against the three column bases by exact multiplication shows the
    dimension is at least 1.

    Raises :class:`PipelineError` when a hypothesis or the check fails, so
    no uncertified nullity is ever reported.
    """
    g = system.genus
    a, b = system.maps

    def decline(reason):
        raise PipelineError(
            f"nullity certificate declined at genus {g}: {reason}")

    if not a(0):
        decline("A(0) = 0")
    if poly_gcd(a, b).degree() != 0:
        decline("A and B share a factor")
    if a.degree() < g - 1:
        decline(f"deg A < {g - 1}")
    b_at_minus_1 = b(-1)
    if not b_at_minus_1:
        decline("B(-1) = 0")
    v = a(-1) / (2 * b_at_minus_1)
    v_poly = v * a
    w_poly = (v * b - a * Fraction(1, 2)).exact_div(Poly([1, 1]))
    (base_u, _), (base_v, _), (base_w, _) = (
        system.columns[i] for i in (0, 2 * g, 3 * g))
    if (v_poly.degree() > g - 1 or w_poly.degree() > g - 2
            or base_u.shift(2 * g) + base_v * v_poly
            + base_w * w_poly):
        decline("the kernel vector does not check")
    return 1


class DeformationSolution(namedtuple(
        "DeformationSolution", "consistent solution nullity")):
    """Outcome of :func:`solve_exact`.

    ``consistent`` says whether the system has a solution at all.
    ``solution`` is the one with every map unknown at zero, in
    :func:`deformation_ansatz` order, or None when there is none (which a
    consistent system may still have: its solutions then all perturb the
    map).  ``nullity`` is the certified dimension of the kernel.
    """

    __slots__ = ()


def _valuation(p: Poly) -> int:
    """The lowest exponent with a nonzero coefficient in a nonzero p."""
    return next(i for i, c in enumerate(p.ints) if c)


def solve_exact(system: DeformationSystem) -> DeformationSolution:
    """Decide the order-t system and solve it with the map unknowns at 0.

    Consistency.  Every column is supported on the exponents low..top
    between the least valuation and the greatest degree among the columns,
    so they span a subspace of the polynomials supported there, which has
    dimension top - low + 1.  When the rank cols - nullity equals that, the
    span is the whole space, and the system is consistent exactly when rhs
    is supported there too.

    The solution.  With every e_d and n_d at zero the system is the single
    identity x^(2g-2) A^2 P = X (X + B^2) B^2 in P = sum a_i x^(2g+1-i), so
    one exact division solves it: there is such a solution exactly when the
    remainder is zero and the quotient has the support of P, degree at most
    2g and no constant term.  On the systems
    :func:`assemble_deformation_system` builds it is the one wanted, as the
    map of the smooth family is the degenerate map.
    """
    g, columns, rhs = system.genus, system.columns, system.rhs
    nullity = certify_nullity(system)
    low = min(_valuation(p) + s for p, s in columns)
    top = max(p.degree() + s for p, s in columns)
    if system.cols - nullity != top - low + 1:
        raise PipelineError(
            f"order-t columns do not span their support at genus {g}")
    consistent = not rhs or (_valuation(rhs) >= low and rhs.degree() <= top)
    quotient, remainder = divmod(rhs, columns[0][0])
    solution = None
    if (not remainder and quotient.degree() <= 2 * g
            and not quotient.coefficient(0)):
        solution = tuple(quotient.coefficient(s) for _, s in columns[:2 * g])
        solution += (ZERO,) * (system.cols - 2 * g)
    return DeformationSolution(consistent, solution, nullity)


class DeformationReport(namedtuple(
        "DeformationReport",
        "genus ansatz rows cols consistent solution nullity instance")):
    """Summary of the pipeline at one genus: the ansatz, the size of the
    order-t system, whether it is consistent, the ``solution`` by unknown
    name (empty when no solution keeps the map unperturbed), the certified
    nullity, and the deformed cover as a :class:`FamilyInstance`, or None
    when it is not exact.
    """

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.instance is not None


def solve_deformation(g: int, maps):
    """Solve the order-t system; returns (ansatz, system, solution).

    The solution is the one :func:`solve_exact` gives, with every map
    perturbation equal to zero: the map of the smooth family is expected to
    coincide with the degenerate map.
    """
    ansatz = deformation_ansatz(g)
    system = assemble_deformation_system(g, maps)
    return ansatz, system, solve_exact(system)


def deform(g: int, solution: dict, maps) -> FamilyInstance:
    """Globalize the first-order solution and certify it exactly.

    The candidate curve S takes the solved coefficients and the map keeps
    its unperturbed (t = 0) value, so the cover is :func:`family_from` of B,
    A and S, with (A, B) the maps and X = x^(2g-1).  It is exact when its
    certificate has the product identity A^2 (x+1) = X + B^2 and the source
    shape S = x (x+1) (X + t B^2), by part (i) of that function's lemma.

    Those two are the cleared cover identity A^2 S = x (X + B^2) (X + t B^2)
    over Q[t], by parts: the t^0 part of every perturbed source is
    x^(2g) (x+1), so its t^0 part is the product identity times x^(2g), and
    given that, its t^1 part A^2 S_1 = x (x+1) A^2 B^2 is S_1 = x (x+1) B^2,
    as A != 0 (X has odd degree, so X + B^2 != 0).
    """
    a_poly, b_poly = maps
    inst = family_from(g, b_poly, a_poly, _perturbed_source(g, solution))
    if not (inst.certificate.product_identity
            and inst.certificate.source_shape):
        raise FirstOrderOnly(
            f"first-order deformation did not globalize at genus {g}"
        )
    return inst


def deformation_report(g: int) -> DeformationReport:
    """Run the whole pipeline at genus g and summarize it.

    This is the one entry into the pipeline: it checks the genus and builds
    the maps once, and the stages below take both as given.
    """
    _check_genus(g)
    maps = _map_polys(g)
    ansatz, system, outcome = solve_deformation(g, maps)
    solution, instance = {}, None
    if outcome.solution is not None:
        solution = dict(zip(ansatz.unknowns, outcome.solution))
        try:
            instance = deform(g, solution, maps)
        except FirstOrderOnly:
            pass
    return DeformationReport(
        genus=g,
        ansatz=ansatz,
        rows=system.rows,
        cols=system.cols,
        consistent=outcome.consistent,
        solution=solution,
        nullity=outcome.nullity,
        instance=instance,
    )
