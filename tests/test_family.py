from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origami_covers.curves import (
    pullback_invariant_differential,
    ramification_report,
    specialize_t,
    verify_cover_identity,
)
from origami_covers.errors import InvalidGenus
from origami_covers.family import (
    build_family,
    companion_identities,
    family_source_curve,
    j_poly,
    k_poly,
    legendre_curve,
)
from origami_covers.parsing import format_poly, parse_poly
from origami_covers.poly import Poly

x = Poly.variable()

genera = st.integers(min_value=1, max_value=9)


class TestCompanionPolynomials:
    def test_small_values(self):
        assert j_poly(1) == 1
        assert k_poly(1) == 1
        assert j_poly(2) == 3 * x + 4
        assert k_poly(2) == x + 4
        assert j_poly(3) == 5 * x * x + 20 * x + 16
        assert k_poly(3) == x * x + 12 * x + 16

    def test_bad_genus(self):
        for bad in (0, -1, "2"):
            with pytest.raises(InvalidGenus):
                j_poly(bad)

    @given(g=genera)
    def test_shape(self, g):
        j = j_poly(g)
        k = k_poly(g)
        assert j.degree() == k.degree() == g - 1
        assert j.leading_coefficient() == 2 * g - 1
        assert k.leading_coefficient() == 1
        assert j.coefficient(0) == k.coefficient(0) == Fraction(4) ** (g - 1)

    @given(g=genera)
    def test_identities(self, g):
        cert = companion_identities(g)
        assert cert.ok
        assert cert.product_identity and cert.derivative_identity


class TestCurves:
    def test_legendre_curve(self):
        curve = legendre_curve()
        assert specialize_t(curve, 1).rhs == x * (x + 1) * (x + 1)
        assert specialize_t(curve, 0).rhs == x * x * (x + 1)

    def test_genus_two_source(self):
        got = family_source_curve(2).rhs
        assert got == parse_poly(
            "x^5 + (1 + 9*t)*x^4 + 33*t*x^3 + 40*t*x^2 + 16*t*x"
        )

    def test_genus_three_source(self):
        got = family_source_curve(3).rhs
        assert got == parse_poly(
            "x^7 + (1 + 25*t)*x^6 + 225*t*x^5 + 760*t*x^4 + 1200*t*x^3"
            " + 896*t*x^2 + 256*t*x"
        )

    @given(g=genera)
    def test_source_specializes_to_degenerate(self, g):
        rhs = specialize_t(family_source_curve(g), 0).rhs
        assert rhs == x ** (2 * g) * (x + 1)


class TestBuildFamily:
    def test_degree_and_maps(self):
        inst = build_family(2)
        assert inst.cover.degree == 3
        assert format_poly(inst.cover.map.f1.num) == "x^3"
        assert format_poly(inst.cover.map.f1.den) == "9*x^2 + 24*x + 16"

    @given(g=genera)
    def test_identity_and_pullback(self, g):
        inst = build_family(g)
        assert verify_cover_identity(inst.cover)
        lam = pullback_invariant_differential(inst.cover)
        assert lam == (2 * g - 1) * x ** (g - 1)

    @given(g=genera)
    def test_ramification(self, g):
        report = ramification_report(build_family(g).cover)
        assert report.ramification_index == 2 * g - 1
        assert report.vanishing_order_at_origin == 2 * (g - 1)
        assert report.riemann_hurwitz_balanced

    def test_identity_survives_specialization(self):
        # Cross-check at a concrete parameter value: identity in Q, not Q[t].
        inst = build_family(2)
        for value in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            p = specialize_t(inst.cover.source, value).rhs
            q = specialize_t(inst.cover.target, value).rhs
            f1, f2 = inst.cover.map.f1, inst.cover.map.f2
            lhs = f2.num * f2.num * p * f1.den**3
            rhs = (
                q.coefficient(3) * f1.num**3
                + q.coefficient(2) * f1.num**2 * f1.den
                + q.coefficient(1) * f1.num * f1.den**2
                + q.coefficient(0) * f1.den**3
            ) * f2.den * f2.den
            assert lhs == rhs
