from fractions import Fraction

import pytest
from hypothesis import given

from conftest import polys, tpolys
from origami_covers.errors import ParseError
from origami_covers.family import j_poly
from origami_covers.parsing import (
    MAX_COEFF_BITS,
    MAX_PARSE_DEGREE,
    format_poly,
    format_ratfunc,
    format_tpoly,
    parse_poly,
    parse_ratfunc,
)
from origami_covers.poly import Poly, TPoly
from origami_covers.ratfunc import RatFunc

x = Poly.variable()


class TestParsePoly:
    def test_plain(self):
        assert parse_poly("x^2 - 3*x + 1") == x * x - 3 * x + 1

    def test_rational_coefficients(self):
        assert parse_poly("x/2 + 1/3") == Fraction(1, 2) * x + Fraction(1, 3)

    def test_implicit_expansion(self):
        assert parse_poly("(x + 1)^3") == x**3 + 3 * x * x + 3 * x + 1

    def test_with_parameter(self):
        p = parse_poly("(1 + 9*t)*x^4 + 33*t*x^3")
        assert isinstance(p, TPoly)
        assert p.parts == (x**4, 9 * x**4 + 33 * x**3)

    def test_alternate_variable(self):
        z = Poly.variable("z")
        assert parse_poly("z^3 + 3*z", var="z") == z**3 + 3 * z

    def test_rejects_true_quotient(self):
        with pytest.raises(ParseError):
            parse_poly("1/x")

    def test_rejects_unknown_name(self):
        with pytest.raises(ParseError):
            parse_poly("x + y")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x +")
        with pytest.raises(ParseError):
            parse_poly("x ? 2")

    def test_rejects_variable_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x^x")

    def test_t_free_text_stays_rational(self):
        p = parse_poly("x^2 + 3*x + 1")
        assert all(isinstance(c, Fraction) for c in p.coeffs)


class TestDegreeCap:
    def test_cap_itself_is_accepted(self):
        assert parse_poly(f"x^{MAX_PARSE_DEGREE}").degree() == MAX_PARSE_DEGREE

    @pytest.mark.parametrize("text", [
        f"x^{MAX_PARSE_DEGREE + 1}",
        "x^999999999",
        "1^999999999",
        "(x^400)^400",
        "x^400 * x^400",
        "(x + t)^300",
        "(t^400)^400",
        f"1/x^{MAX_PARSE_DEGREE + 1}",
        pytest.param("((2^512)^512)^512*x^5 + x", id="coefficient-power"),
        pytest.param("(2^512*x)^4 * (2^512*x)^5", id="coefficient-product"),
        pytest.param("9" * (MAX_COEFF_BITS * 3 // 10 + 1), id="long-literal"),
    ])
    def test_over_the_cap_is_refused(self, text):
        with pytest.raises(ParseError, match="limit"):
            parse_poly(text)

    def test_largest_generated_coefficients_parse_back(self):
        # j^3 at the default --max-genus of 64 holds 478-bit coefficients.
        p = j_poly(64) ** 3
        assert parse_poly(format_poly(p)) == p


class TestParseRatFunc:
    def test_basic(self):
        assert parse_ratfunc("x^3/(9*x^2 + 24*x + 16)") == RatFunc(
            x**3, 9 * x * x + 24 * x + 16
        )

    def test_rejects_parameter(self):
        with pytest.raises(ParseError):
            parse_ratfunc("t*x/(x + 1)")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_ratfunc("x/(x - x)")


class TestPrinting:
    def test_highest_degree_first(self):
        assert format_poly(x**3 - 2 * x + 1) == "x^3 - 2*x + 1"

    def test_zero(self):
        assert format_poly(Poly([])) == "0"

    def test_tpoly_lowest_first(self):
        assert format_tpoly(Poly([1, 9], var="t")) == "1 + 9*t"

    def test_parenthesized_parameter_coefficient(self):
        p = parse_poly("(1 + 9*t)*x^4 + 33*t*x^3 + 16*t*x")
        assert format_poly(p) == "(1 + 9*t)*x^4 + 33*t*x^3 + 16*t*x"

    def test_ratfunc_form(self):
        r = RatFunc(x**3, 9 * x * x + 24 * x + 16)
        assert format_ratfunc(r) == "x^3/(9*x^2 + 24*x + 16)"

    def test_multi_term_numerator_parenthesized(self):
        r = RatFunc(x + 1, x * x + 2)
        assert format_ratfunc(r) == "(x + 1)/(x^2 + 2)"

    def test_polynomial_ratfunc_prints_bare(self):
        assert format_ratfunc(RatFunc(3 * x, 1)) == "3*x"


class TestRoundTrip:
    @given(p=polys())
    def test_poly_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(p=tpolys())
    def test_tower_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(a=polys(max_size=4), b=polys(max_size=4).filter(bool))
    def test_ratfunc_roundtrip(self, a, b):
        r = RatFunc(a, b)
        assert parse_ratfunc(format_ratfunc(r)) == r
