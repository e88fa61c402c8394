import re
from fractions import Fraction

import pytest
from conftest import rationals
from hypothesis import example, given
from hypothesis import strategies as st

import math_oracle
from linalg import LinearSystem
from linalg import solve_exact as bareiss
from math_oracle import (
    compose,
    degenerate_cover,
    nodal_cubic_rhs,
    normalize_degenerate_source,
    normalize_nodal_cubic,
    pipeline_closure,
)
from origami_covers import degeneration
from origami_covers.curves import Cover, CoverMap, verify_cover_identity
from origami_covers.degeneration import (
    _at_x_plus_1,
    _map_polys,
    _perturbed_source,
    assemble_deformation_system,
    certify_nullity,
    deform,
    deformation_ansatz,
    deformation_report,
    degenerate_source_rhs,
    solve_deformation,
    solve_exact,
    two_branch_map,
)
from origami_covers.errors import (
    FirstOrderOnly,
    InvalidDegree,
    InvalidGenus,
    PipelineError,
)
from origami_covers.family import build_family, family_from
from origami_covers.poly import Poly, TPoly
from origami_covers.ratfunc import RatFunc
from origami_covers.selftest import check_two_branch_map

z = Poly.variable()
x = Poly.variable()


def densify(system):
    """The polynomial system as a dense :class:`linalg.LinearSystem`: row i
    holds the x^i coefficients of the columns and of the right-hand side."""
    rows = range(system.rows)
    return LinearSystem(
        [[p.coefficient(i - s) for p, s in system.columns] for i in rows],
        [system.rhs.coefficient(i) for i in rows],
    )


class TestNormalizations:
    def test_nodal_cubic(self):
        curve = normalize_nodal_cubic()
        u = Poly.variable()
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


class TestPushDown:
    @given(st.lists(st.integers(min_value=-10**30, max_value=10**30),
                    max_size=40))
    @example([])
    @example([7])
    @example([-3, 0, 2, 0])
    def test_pascal_rows_match_horner(self, cs):
        # Every slot, trailing zeros included, against Horner composition.
        horner = list(compose(Poly(cs), Poly([1, 1])).coeffs)
        assert _at_x_plus_1(cs) == horner + [0] * (len(cs) - len(horner))


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
        monkeypatch.setattr(math_oracle, "degenerate_cover", wrong_cover)
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
        system = densify(assemble_deformation_system(g, _map_polys(g)))
        n_rows = max(p.degree() for p in columns + [base]) + 1
        assert system.rows == n_rows
        for i in range(n_rows):
            assert system.rhs[i] == -base.coefficient(i)
            for j, col in enumerate(columns):
                assert system.matrix[i][j] == col.coefficient(i)

    def test_genus_two_ansatz(self):
        ansatz = deformation_ansatz(2)
        assert ansatz.unknowns == ("a", "b", "c", "d", "e", "f", "g")
        assert ansatz.den_unknowns + ansatz.num_unknowns == ("e", "f", "g")

    def test_genus_three_ansatz(self):
        ansatz = deformation_ansatz(3)
        assert len(ansatz.curve_unknowns) == 6
        assert len(ansatz.den_unknowns + ansatz.num_unknowns) == 5

    def test_genus_two_solution(self):
        ansatz, _, outcome = solve_deformation(2, _map_polys(2))
        assert outcome.consistent
        solution = dict(zip(ansatz.unknowns, outcome.solution))
        assert solution == {
            "a": 9, "b": 33, "c": 40, "d": 16, "e": 0, "f": 0, "g": 0,
        }
        assert outcome.nullity == 1

    def test_system_solution_satisfies_system(self):
        system = densify(assemble_deformation_system(2, _map_polys(2)))
        _, _, outcome = solve_deformation(2, _map_polys(2))
        for row, rhs in zip(system.matrix, system.rhs):
            assert sum(c * v for c, v in zip(row, outcome.solution)) == rhs

    def test_unpinned_solution_also_valid(self):
        # The raw solve (free variables zeroed) must still satisfy the system
        # even though it lands on a different representative.
        system = densify(assemble_deformation_system(2, _map_polys(2)))
        outcome = bareiss(system)
        assert outcome.consistent
        for row, rhs in zip(system.matrix, system.rhs):
            assert sum(c * v for c, v in zip(row, outcome.solution)) == rhs

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_deform_recovers_family(self, g):
        assert deformation_report(g).instance == build_family(g)

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
            deform(2, bad, _map_polys(2))

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            deformation_report(1)


class TestOrderZeroCheck:
    @pytest.mark.parametrize("g", range(2, 7))
    def test_a_broken_degenerate_cover_is_refused(self, g):
        # A^2 (x+1) = X + B^2 fails when B is doubled.
        a, b = _map_polys(g)
        with pytest.raises(PipelineError, match=re.escape("order t^0")):
            assemble_deformation_system(g, (a, 2 * b))


class TestExactnessCertificate:
    """``deform``'s cleared identity against the full cover identity."""

    @given(g=st.integers(min_value=2, max_value=10), data=st.data())
    def test_agrees_with_the_cover_identity(self, g, data):
        maps = _map_polys(g)
        ansatz, _, outcome = solve_deformation(g, maps)
        solution = dict(zip(ansatz.unknowns, outcome.solution))
        if data.draw(st.booleans(), label="change a curve unknown"):
            name = data.draw(st.sampled_from(ansatz.curve_unknowns),
                             label="unknown")
            solution[name] += data.draw(rationals, label="change")
        a, b = maps
        cover = family_from(g, b, a, _perturbed_source(g, solution)).cover
        try:
            deform(g, solution, maps)
        except FirstOrderOnly:
            raises = True
        else:
            raises = False
        assert raises == (not verify_cover_identity(cover))

    @pytest.mark.parametrize("g", [2, 3, 5])
    @pytest.mark.parametrize("shift", [1, 2])
    def test_a_changed_system_does_not_certify_itself(self, monkeypatch, g,
                                                      shift):
        # Adding a multiple of a curve column to the right-hand side keeps
        # the map unperturbed in the solution but moves the curve off the
        # family, so the deformed cover is not exact.
        def changed(g, maps, _assemble=degeneration
                    .assemble_deformation_system):
            system = _assemble(g, maps)
            base, _ = system.columns[0]
            return system._replace(rhs=system.rhs + base * x ** shift)
        monkeypatch.setattr(degeneration, "assemble_deformation_system",
                            changed)
        report = deformation_report(g)
        assert report.consistent and report.solution
        assert not report.exact


class TestSolverAgainstBareiss:
    """``solve_exact`` (one division and the nullity certificate) against
    Bareiss elimination of the densified system."""

    @pytest.mark.parametrize("g", range(2, 17))
    def test_agrees_on_the_assembled_system(self, g):
        system = assemble_deformation_system(g, _map_polys(g))
        ours, dense = solve_exact(system), bareiss(densify(system))
        assert ours.consistent == dense.consistent
        assert ours.solution == dense.solution
        assert ours.nullity == dense.nullity == 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_agrees_on_consistency_with_one_coefficient_changed(self, g):
        # Below x^(2g-1) no column reaches, so the change is inconsistent;
        # from there on the columns span every coefficient, and the changed
        # system is consistent though its solutions all perturb the map.
        system = assemble_deformation_system(g, _map_polys(g))
        for i in range(system.rows + 1):
            changed = system._replace(rhs=system.rhs + Poly.monomial(1, i))
            ours, dense = solve_exact(changed), bareiss(densify(changed))
            assert ours.consistent == dense.consistent
            assert ours.consistent == (2 * g - 1 <= i < system.rows)
            assert ours.solution is None
            assert ours.nullity == dense.nullity


class TestNullityCertificate:
    @pytest.mark.parametrize("g", [2, 3, 8])
    def test_certifies_one(self, g):
        system = assemble_deformation_system(g, _map_polys(g))
        assert certify_nullity(system) == 1

    @pytest.mark.parametrize("breakage, reason", [
        (lambda a, b: (x * a, b), "A(0) = 0"),
        # Coprimality rests on the t^0 check that assemble_deformation_system
        # makes, so with that check bypassed only the kernel vector's check
        # catches a common factor.
        (lambda a, b: ((x + 2) * a, (x + 2) * b),
         "the kernel vector does not check"),
        (lambda a, b: (Poly([1]), b), "deg A < 2"),
        (lambda a, b: (a, (x + 1) * b), "B(-1) = 0"),
        # 2B halves v = A(-1) / (2B(-1)), so V = vA misses the kernel.
        (lambda a, b: (a, 2 * b), "the kernel vector does not check"),
    ], ids=["A(0)", "common-factor", "deg-A", "B(-1)", "wrong-v"])
    def test_declines_when_a_hypothesis_fails(self, breakage, reason):
        # The columns stay those of the true (A, B).
        system = assemble_deformation_system(3, _map_polys(3))
        broken = system._replace(maps=breakage(*system.maps))
        with pytest.raises(PipelineError, match=re.escape(reason)):
            certify_nullity(broken)

    def test_common_factor_fails_the_order_zero_check(self):
        # The t^0 identity (x+1) A^2 = X + B^2 is what makes A and B
        # coprime, and a common factor breaks it.
        a, b = _map_polys(3)
        with pytest.raises(PipelineError, match=re.escape("order t^0")):
            assemble_deformation_system(3, ((x + 2) * a, (x + 2) * b))
