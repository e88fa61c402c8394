from fractions import Fraction

import pytest

from origami_covers import degeneration
from origami_covers.curves import Cover, CoverMap, verify_cover_identity
from origami_covers.degeneration import (
    _map_polys,
    assemble_deformation_system,
    deform,
    deformation_ansatz,
    deformation_report,
    degenerate_cover,
    degenerate_source_rhs,
    nodal_cubic_rhs,
    normalize_degenerate_source,
    normalize_nodal_cubic,
    pipeline_closure,
    solve_deformation,
    two_branch_map,
)
from origami_covers.errors import FirstOrderOnly, InvalidDegree, InvalidGenus
from origami_covers.family import build_family
from origami_covers.linalg import solve_exact
from origami_covers.poly import Poly, TPoly
from origami_covers.ratfunc import RatFunc
from origami_covers.selftest import check_two_branch_map

z = Poly.variable("z")


class TestNormalizations:
    def test_nodal_cubic(self):
        curve = normalize_nodal_cubic()
        u = Poly.variable("u")
        assert curve.x_of_u == u * u - 1
        assert curve.y_of_u == u**3 - u
        assert curve.satisfies(nodal_cubic_rhs())

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_degenerate_source(self, g):
        curve = normalize_degenerate_source(g)
        assert curve.satisfies(degenerate_source_rhs(g))

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            normalize_degenerate_source(1)


class TestTwoBranchMap:
    def test_degree_three(self):
        m = two_branch_map(3)
        assert m.num == z**3 + 3 * z
        assert m.den == 3 * z * z + 1

    def test_degree_five(self):
        m = two_branch_map(5)
        assert m.num == z**5 + 10 * z**3 + 5 * z
        assert m.den == 5 * z**4 + 10 * z * z + 1

    def test_degree_one_is_identity(self):
        assert two_branch_map(1) == z

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_fixes_plus_minus_one(self, n):
        m = two_branch_map(n)
        assert m.den(1) and m.num(1) == m.den(1)
        assert m.den(-1) and m.num(-1) == -m.den(-1)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_branched_only_at_fixed_points(self, n):
        # The numerator of the derivative, num' den - num den', must be a
        # constant times (z^2 - 1)^(n-1).
        m = two_branch_map(n)
        dnum = m.num.derivative() * m.den - m.num * m.den.derivative()
        quotient = dnum.exact_div((z * z - 1) ** (n - 1))
        assert quotient.is_constant()

    @pytest.mark.parametrize("bad", [0, 2, 4, -3])
    def test_rejects_even_or_nonpositive(self, bad):
        with pytest.raises(InvalidDegree):
            two_branch_map(bad)

    @pytest.mark.parametrize("breakage, witness", [
        (lambda n, m: RatFunc(m.num + z + 1, m.den), "does not fix +1"),
        (lambda n, m: RatFunc(m.num + z - 1, m.den), "does not fix -1"),
        (lambda n, m: RatFunc(m.num + z * (z * z - 1), m.den),
         "derivative numerator not (z^2-1)^(n-1)"),
        # The degree-(n+2) map is branched only at +-1, to one order more.
        (lambda n, m: two_branch_map(n + 2),
         "derivative numerator shape wrong"),
    ], ids=["plus-one", "minus-one", "not-divisible", "nonconstant-quotient"])
    def test_selftest_check_names_the_failure(self, monkeypatch, breakage,
                                              witness):
        # n = 1 and 3 keep the true map, so the first failure is at n = 5.
        monkeypatch.setattr(
            degeneration, "two_branch_map",
            lambda n: two_branch_map(n) if n < 5
            else breakage(n, two_branch_map(n)))
        result = check_two_branch_map()
        assert not result.ok
        assert result.detail == f"n=5 {witness}"


class TestDegenerateCover:
    def test_genus_two_maps(self):
        x = Poly.variable()
        cover = degenerate_cover(2)
        assert cover.degree == 3
        # Same maps as the smooth family: denominator (3x+4)^2 expanded.
        assert cover.map.f1.num == x**3
        assert cover.map.f1.den == 9 * x * x + 24 * x + 16
        assert cover.source.rhs == x**4 * (x + 1)
        assert cover.target.rhs == x**3 + x * x

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_identity_holds(self, g):
        assert verify_cover_identity(degenerate_cover(g))

    @pytest.mark.parametrize("g", [2, 3])
    def test_pipeline_closure(self, g):
        assert pipeline_closure(g)

    @pytest.mark.parametrize("perturb", [
        lambda f1, f2: (f1, RatFunc(2 * f2.num, f2.den)),
        lambda f1, f2: (RatFunc(f1.num + 1, f1.den), f2),
    ], ids=["f2-doubled", "f1-numerator-perturbed"])
    def test_pipeline_closure_fails_for_a_wrong_cover(self, monkeypatch,
                                                      perturb):
        def wrong_cover(g):
            cover = degenerate_cover(g)
            f1, f2 = perturb(cover.map.f1, cover.map.f2)
            return Cover(cover.source, cover.target, CoverMap(f1, f2),
                         cover.degree)
        monkeypatch.setattr(degeneration, "degenerate_cover", wrong_cover)
        assert not pipeline_closure(3)

    def test_map_matches_family(self):
        for g in (2, 3):
            assert degenerate_cover(g).map == build_family(g).cover.map


def _order_t_residual(g, values):
    """t^1 coefficient of the cleared identity with every ansatz unknown
    perturbed: x^(2g-2) N^2 S - X (X + D^2) (X + t D^2), X = x^(2g-1).
    S, N and D are written as their t^0 and t^1 parts."""
    ansatz = deformation_ansatz(g)
    a_poly, b_poly = _map_polys(g)
    x = Poly.variable()
    source = [0] * (2 * g + 2)
    for i, name in enumerate(ansatz.curve_unknowns, start=1):
        source[2 * g + 1 - i] = values[name]
    den = [0] * g
    for name, deg in zip(ansatz.den_unknowns, range(g - 1, -1, -1)):
        den[deg] = values[name]
    num = [0] * g
    for name, deg in zip(ansatz.num_unknowns, range(g - 2, -1, -1)):
        num[deg] = values[name]
    big_x = x ** (2 * g - 1)
    s = TPoly([x ** (2 * g + 1) + x ** (2 * g), Poly(source)])
    n_full = x ** (g - 1) * TPoly([a_poly, Poly(num)])
    den_sq = TPoly([b_poly, Poly(den)]) ** 2
    t = TPoly([Poly([]), Poly([1])])
    residual = n_full * n_full * s - big_x * (big_x + den_sq) * (
        big_x + t * den_sq
    )
    parts = residual.parts + (Poly([]),) * 2
    assert not parts[0]
    return parts[1]


class TestDeformation:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_closed_form_system_matches_probing(self, g):
        # Each unit vector of the ansatz, substituted into the perturbed
        # identity, gives one column; the unperturbed residual gives -rhs.
        names = deformation_ansatz(g).unknowns
        zero = dict.fromkeys(names, Fraction(0))
        base = _order_t_residual(g, zero)
        columns = [_order_t_residual(g, dict(zero, **{name: Fraction(1)}))
                   - base for name in names]
        system = assemble_deformation_system(g)
        n_rows = max(p.degree() for p in columns + [base]) + 1
        assert system.rows == n_rows
        for i in range(n_rows):
            assert system.rhs[i] == -base.coefficient(i)
            for j, col in enumerate(columns):
                assert system.matrix[i][j] == col.coefficient(i)

    def test_genus_two_ansatz(self):
        ansatz = deformation_ansatz(2)
        assert ansatz.unknowns == ("a", "b", "c", "d", "e", "f", "g")
        assert ansatz.map_unknowns == ("e", "f", "g")

    def test_genus_three_ansatz(self):
        ansatz = deformation_ansatz(3)
        assert len(ansatz.curve_unknowns) == 6
        assert len(ansatz.map_unknowns) == 5

    def test_genus_two_solution(self):
        ansatz, _, outcome = solve_deformation(2)
        assert outcome.consistent
        solution = dict(zip(ansatz.unknowns, outcome.solution))
        assert solution == {
            "a": 9, "b": 33, "c": 40, "d": 16, "e": 0, "f": 0, "g": 0,
        }
        assert outcome.nullity == 1

    def test_system_solution_satisfies_system(self):
        system = assemble_deformation_system(2)
        _, _, outcome = solve_deformation(2)
        for row, rhs in zip(system.matrix, system.rhs):
            assert sum(c * v for c, v in zip(row, outcome.solution)) == rhs

    def test_unpinned_solution_also_valid(self):
        # The raw solve (free variables zeroed) must still satisfy the system
        # even though it lands on a different representative.
        system = assemble_deformation_system(2)
        outcome = solve_exact(system)
        assert outcome.consistent
        for row, rhs in zip(system.matrix, system.rhs):
            assert sum(c * v for c, v in zip(row, outcome.solution)) == rhs

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_deform_recovers_family(self, g):
        assert deform(g) == build_family(g)

    def test_report(self):
        report = deformation_report(2)
        assert report.exact
        assert report.nullity == 1
        assert report.cols == 7
        assert report.solution["b"] == Fraction(33)

    def test_wrong_solution_fails_exactness(self):
        ansatz = deformation_ansatz(2)
        bad = {name: Fraction(1) for name in ansatz.unknowns}
        with pytest.raises(FirstOrderOnly):
            deform(2, solution=bad)

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            deform(1)
