import json
from fractions import Fraction

import pytest

from origami_covers.curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    cover_from_dict,
    cover_from_json,
    cover_to_dict,
    genus_arithmetic,
    genus_geometric,
    pullback_invariant_differential,
    ramification_report,
    specialize_t,
    verify_cover_identity,
)
from origami_covers.errors import (
    InvalidCurve,
    ParseError,
    UnsupportedShape,
)
from origami_covers.family import build_family, family_instance
from origami_covers.poly import Poly
from origami_covers.ratfunc import RatFunc

x = Poly.variable()


def is_derivative_over_f2(cover, lam):
    """lam = f1'/f2 as a cleared identity: with f1 = a/b and f2 = n/d,
    lam.num * b^2 n == (a'b - ab') d * lam.den."""
    a, b = cover.map.f1.num, cover.map.f1.den
    n, d = cover.map.f2.num, cover.map.f2.den
    return (lam.num * b * b * n
            == (a.derivative() * b - a * b.derivative()) * d * lam.den)


class TestGenus:
    def test_arithmetic_from_degree(self):
        assert genus_arithmetic(HyperellipticCurve(x**3 + 1)) == 1
        assert genus_arithmetic(HyperellipticCurve(x**5 + x)) == 2
        assert genus_arithmetic(HyperellipticCurve(x**6 + x)) == 2
        assert genus_arithmetic(HyperellipticCurve(x**7 + x)) == 3

    def test_arithmetic_rejects_low_degree(self):
        with pytest.raises(InvalidCurve):
            genus_arithmetic(HyperellipticCurve(x * x + 1))

    def test_geometric_drops_square_factors(self):
        # y^2 = x^4 (x+1) is rational: the squarefree part is x(x+1).
        assert genus_geometric(HyperellipticCurve(x**4 * (x + 1))) == 0

    def test_geometric_keeps_only_odd_multiplicities(self):
        # x^2 leaves y as a square factor: the smooth model is
        # y^2 = (x-1)(x-2)(x-3)(x-4), of genus 1.
        rhs = x * x * (x - 1) * (x - 2) * (x - 3) * (x - 4)
        assert genus_geometric(HyperellipticCurve(rhs)) == 1
        # (x-1)^3 keeps one factor x-1 in the smooth model.
        rhs = (x - 1) ** 3 * (x - 2) ** 2 * (x - 3) * (x - 4)
        assert genus_geometric(HyperellipticCurve(rhs)) == 1

    def test_geometric_agrees_when_squarefree(self):
        curve = HyperellipticCurve(x**5 + x + 1)
        assert genus_geometric(curve) == genus_arithmetic(curve) == 2

    def test_zero_rhs_rejected(self):
        with pytest.raises(InvalidCurve):
            HyperellipticCurve(Poly([]))


class TestSpecialization:
    def test_family_at_zero(self):
        source = family_instance(2).cover.source
        assert specialize_t(source, 0).rhs == x**4 * (x + 1)

    def test_family_at_one(self):
        source = family_instance(2).cover.source
        at1 = specialize_t(source, 1)
        assert at1.is_over_q()
        # t=1 plugs j^2 into the inner factor: x(x+1)(x^3 + j(x)^2).
        j = 3 * x + 4
        assert at1.rhs == x * (x + 1) * (x**3 + j * j)


class TestIdentity:
    def test_family_cover_verifies(self):
        cert = verify_cover_identity(build_family(2).cover)
        assert cert.ok
        assert bool(cert)

    def test_perturbed_cover_fails(self):
        inst = build_family(2)
        f1 = inst.cover.map.f1
        bad = Cover(
            source=inst.cover.source,
            target=inst.cover.target,
            map=CoverMap(f1=RatFunc(f1.num + f1.den, f1.den),
                         f2=inst.cover.map.f2),
            degree=inst.cover.degree,
        )
        cert = verify_cover_identity(bad)
        assert not cert.ok
        assert cert.witness == "coefficient of t^0*x^14 differs"

    def test_rational_coefficient_cover(self):
        # (x, y) -> (x^2, y) maps y^2 = x^6 + 1 onto y^2 = x^3 + 1.
        cover = Cover(
            source=HyperellipticCurve(x**6 + 1),
            target=HyperellipticCurve(x**3 + 1),
            map=CoverMap(f1=RatFunc(x * x, 1), f2=RatFunc(1, 1)),
            degree=2,
        )
        assert verify_cover_identity(cover).ok


class TestRamification:
    def test_family_report(self):
        report = ramification_report(build_family(3).cover)
        assert report.branch_point_x == Fraction(0)
        assert report.ramification_index == 5
        assert report.vanishing_order_at_origin == 4
        assert report.riemann_hurwitz_balanced
        assert report.pullback_coefficient == 5 * x * x

    def test_pullback_is_derivative_over_f2(self):
        cover = build_family(2).cover
        lam = pullback_invariant_differential(cover)
        assert is_derivative_over_f2(cover, lam)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_family_pullback_is_derivative_over_f2(self, g):
        cover = build_family(g).cover
        lam = pullback_invariant_differential(cover)
        assert is_derivative_over_f2(cover, lam)

    def test_rational_pullback_is_derivative_over_f2(self):
        # b^2 n = (x+1)^2 (x+2) does not divide (a'b - ab')d = x(x+2)(x-1),
        # so the pullback is reduced from the full fraction.
        f1, f2 = RatFunc(x * x, x + 1), RatFunc(x + 2, x - 1)
        cover = Cover(
            source=HyperellipticCurve(x**5 + x),
            target=HyperellipticCurve(x**3 + 1),
            map=CoverMap(f1=f1, f2=f2),
            degree=2,
        )
        lam = pullback_invariant_differential(cover)
        assert is_derivative_over_f2(cover, lam)
        assert lam == RatFunc(x * (x - 1), (x + 1) ** 2)
        assert not lam.is_poly()

    def test_non_monomial_pullback_rejected(self):
        # f1' = 2x + 1 is not a monomial, so the report refuses the shape.
        cover = Cover(
            source=HyperellipticCurve(x**5 + x),
            target=HyperellipticCurve(x**3 + 1),
            map=CoverMap(f1=RatFunc(x * x + x, 1), f2=RatFunc(1, 1)),
            degree=2,
        )
        with pytest.raises(UnsupportedShape):
            ramification_report(cover)


class TestInterchange:
    def test_roundtrip_bit_exact(self):
        cover = build_family(2).cover
        text = json.dumps(cover_to_dict(cover), indent=2)
        again = cover_from_json(text)
        assert json.dumps(cover_to_dict(again), indent=2) == text
        assert again.map == cover.map
        assert again.source == cover.source
        assert again.target == cover.target

    def test_dict_shape(self):
        doc = cover_to_dict(build_family(2).cover)
        assert set(doc) == {"source_rhs", "target_rhs", "f1", "f2", "degree"}
        assert doc["degree"] == 3
        assert doc["f1"] == "x^3/(9*x^2 + 24*x + 16)"

    def test_missing_field_named(self):
        doc = cover_to_dict(build_family(2).cover)
        del doc["f2"]
        with pytest.raises(ParseError, match="f2"):
            cover_from_dict(doc)

    def test_bad_polynomial_named(self):
        doc = cover_to_dict(build_family(2).cover)
        doc["source_rhs"] = "x^^2"
        with pytest.raises(ParseError, match="source_rhs"):
            cover_from_dict(doc)

    def test_bad_degree(self):
        doc = cover_to_dict(build_family(2).cover)
        doc["degree"] = "three"
        with pytest.raises(ParseError, match="degree"):
            cover_from_dict(doc)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            cover_from_json("{not json")
        with pytest.raises(ParseError):
            cover_from_json(json.dumps([1, 2]))
