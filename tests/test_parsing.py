import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import polys, tpolys
from origami_covers import parsing
from origami_covers.errors import ParseError
from origami_covers.family import j_poly
from origami_covers.parsing import (
    MAX_COEFF_BITS,
    MAX_NESTING,
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

    @pytest.mark.parametrize("terms", [
        ("x^512", "t", "1"),
        ("x^512", "t"),
        ("(x + 1)^512", "t"),
        ("x^256*x^256", "-t"),
    ])
    def test_over_the_cap_sum_is_refused_in_any_order(self, terms):
        # The finished sum is checked, not only the operands of products.
        for order in itertools.permutations(terms):
            with pytest.raises(ParseError, match="degree limit"):
                parse_poly(" + ".join(order))

    def test_sum_at_the_cap_is_accepted(self):
        # (255 + 1) * (1 + 1) = 512 dense coefficients.
        p = parse_poly("t*x^255 + x^255 + t + 1")
        assert p.parts == (x**255 + 1, x**255 + 1)

    @pytest.mark.parametrize("text, copies", [
        ("(t-1)^511", 1),
        ("(t-1)^511 + (t-1)^511 + (t-1)^511", 3),
    ])
    def test_powers_of_sums_in_t_parse_quickly(self, text, copies):
        # Inside every cap, yet each squaring of a sum of 256 parts used to
        # take one product per pair of parts.
        start = time.perf_counter()
        p = parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert p.parts == tuple(
            Poly([copies * (-1) ** (511 - k) * math.comb(511, k)])
            for k in range(512))

    def test_largest_generated_coefficients_parse_back(self):
        # j^3 at the default --max-genus of 64 holds 478-bit coefficients.
        p = j_poly(64) ** 3
        assert parse_poly(format_poly(p)) == p


class TestNesting:
    """Parentheses and unary signs nest at most MAX_NESTING deep, so the
    verdict never depends on how much stack the caller has left."""

    def test_fifty_parentheses_parse(self):
        assert parse_poly("(" * 50 + "x" + ")" * 50) == x

    @pytest.mark.parametrize("opening", ["(", "-", "+", "-("],
                             ids=["parentheses", "minus", "plus", "mixed"])
    def test_cap_itself_is_accepted(self, opening):
        depth = MAX_NESTING // len(opening)
        text = opening * depth + "x" + ")" * opening.count("(") * depth
        assert parse_poly(text) in (x, -x)

    @pytest.mark.parametrize("text", [
        "(" * 400 + "x" + ")" * 400,
        "-" * 1000 + "x",
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "-" * (MAX_NESTING + 1) + "x",
        "-(" * (MAX_NESTING // 2) + "-x" + ")" * (MAX_NESTING // 2),
    ], ids=["parentheses-400", "minus-1000", "parentheses-over-cap",
            "minus-over-cap", "mixed-over-cap"])
    def test_over_the_cap_is_refused(self, text):
        with pytest.raises(ParseError, match="nests deeper than the limit"):
            parse_poly(text)


class TestMonomialTerms:
    """Terms built from literals, x, t and their powers are computed on
    (coefficient, t-degree, x-degree) without building a polynomial."""

    @pytest.mark.parametrize("text", [
        "2^4097*x",
        "(2^512)^9*x",
        "(1/2^512)^9*x",
        "x^600/4",
        "t^513*x",
        "3*t*x^300*t",
        "((2^512)^512)^512*x",
    ])
    def test_refused_before_any_polynomial_is_built(self, text, monkeypatch):
        def no_polynomials(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(parsing, "Poly", no_polynomials)
        monkeypatch.setattr(parsing, "TPoly", no_polynomials)
        with pytest.raises(ParseError, match="limit"):
            parse_poly(text)

    def test_zero_coefficient_has_no_degree(self):
        # 0*x^500 is the zero monomial, so the product stays under the cap.
        assert parse_poly("0*x^500*x^500") == Poly([])

    def test_long_sum_parses_in_linear_time(self):
        terms = [(k % 97, k % 2, k % 200) for k in range(5000)]
        text = " + ".join(f"{c}*t^{a}*x^{b}" for c, a, b in terms)
        expected = [[0] * 200, [0] * 200]
        for c, a, b in terms:
            expected[a][b] += c
        start = time.perf_counter()
        p = parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert p.parts == (Poly(expected[0]), Poly(expected[1]))


class TestSumsOfQuotients:
    """Quotients in one sum are grouped by denominator, and the product of
    the distinct denominators is checked before any numerator is built, so
    the verdict does not depend on the order of the terms."""

    @pytest.mark.parametrize("terms", [
        ("1/(x^300+1)", "1/(x^200+1)", "1/(x^300+1)"),
        ("1/(x^300+1)", "1/(x^200+1)", "1/(x^300+2)"),
    ])
    def test_one_verdict_in_every_order(self, terms):
        def verdict(text):
            try:
                return parse_ratfunc(text)
            except ParseError as error:
                return str(error)

        verdicts = [verdict(" + ".join(order))
                    for order in itertools.permutations(terms)]
        assert all(v == verdicts[0] for v in verdicts)

    def test_cancelling_quotients_are_accepted_in_every_order(self):
        for order in itertools.permutations(("(x^512+0)", "(t+0)", "(-t+0)")):
            assert parse_poly(" + ".join(order)) == x**MAX_PARSE_DEGREE

    def test_equal_denominators_add_numerators(self):
        # Cross-multiplied, the denominator would have degree 600.
        for order in itertools.permutations(
                ("1/(x^300+1)", "x/(x^300+1)", "3/(x^200+1)")):
            assert parse_ratfunc(" + ".join(order)) == RatFunc(
                (x + 1) * (x**200 + 1) + 3 * (x**300 + 1),
                (x**300 + 1) * (x**200 + 1))

    def test_distinct_large_denominators_are_refused_in_every_order(self):
        terms = ("1/(x^200+1)", "x/(x^200+2)", "(x+5)/(x^200+3)")
        start = time.perf_counter()
        for order in itertools.permutations(terms):
            with pytest.raises(ParseError, match="degree limit"):
                parse_ratfunc(" + ".join(order))
        assert time.perf_counter() - start < 1.0


class TestPrecedence:
    """``/`` takes one factor, unary minus binds looser than ``^``, and a
    parenthesized product is one factor."""

    @pytest.mark.parametrize("text, expected", [
        ("1/2*x", Fraction(1, 2) * x),
        ("x/2*3", Fraction(3, 2) * x),
        ("2/3/4*x", Fraction(1, 6) * x),
        ("-2^2", Poly([-4])),
        ("2*-x^3", -2 * x**3),
        ("(2*x)^3/4", 2 * x**3),
    ])
    def test_hand_values(self, text, expected):
        assert parse_poly(text) == expected

    def test_quotient_by_one_factor_of_a_variable(self):
        assert parse_ratfunc("1/x*x^2") == RatFunc(x, 1)
        assert parse_ratfunc("2/x^2*3") == RatFunc(Poly([6]), x**2)


class TestTokenizerErrors:
    """A bad character is reported at the end of the token before it, so
    the spaces in front of it are counted in its position."""

    @pytest.mark.parametrize("text, message", [
        ("x +   ?", "unexpected character '?' at position 3"),
        ("   $x", "unexpected character '$' at position 0"),
        ("x?2", "unexpected character '?' at position 1"),
        ("3*x^2 + 2#", "unexpected character '#' at position 9"),
        ("x + 1  %  ", "unexpected character '%' at position 5"),
        ("x + 1" + "9" * 2000 + " ?", "integer literal exceeds the limit "
         f"{MAX_COEFF_BITS} bits"),
        ("? + " + "9" * 2000, "unexpected character '?' at position 0"),
        # Literals are ASCII digits: other Unicode digits are not read.
        ("\uff13*x", "unexpected character '\uff13' at position 0"),
        ("x^\u0663", "unexpected character '\u0663' at position 2"),
        ("1\u0660", "unexpected character '\u0660' at position 1"),
    ])
    def test_message(self, text, message):
        with pytest.raises(ParseError) as error:
            parse_poly(text)
        assert str(error.value) == message

    def test_longest_literal_is_accepted(self):
        digits = MAX_COEFF_BITS * 3 // 10
        assert parse_poly("9" * digits) == Poly([10**digits - 1])
        with pytest.raises(ParseError) as error:
            parse_poly("9" * (digits + 1))
        assert str(error.value) == (
            f"integer literal exceeds the limit {MAX_COEFF_BITS} bits")

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
        assert format_tpoly(Poly([1, 9])) == "1 + 9*t"

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
